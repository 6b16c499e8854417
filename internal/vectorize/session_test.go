package vectorize

import (
	"testing"

	"pghive/internal/pg"
)

func labeledBatch(labels ...string) *pg.Batch {
	b := &pg.Batch{}
	for i, l := range labels {
		b.Nodes = append(b.Nodes, pg.NodeRecord{
			ID:     pg.ID(i),
			Labels: []string{l},
			Props:  pg.Properties{"name": pg.Str("x")},
		})
	}
	return b
}

func TestNewMatchesSessionFirstBatch(t *testing.T) {
	b := exampleBatch(t)
	oneShot := New(b, Config{})
	sess := NewSession(Config{}).Vectorize(b)
	for i := range b.Nodes {
		a, c := oneShot.NodeVector(&b.Nodes[i]), sess.NodeVector(&b.Nodes[i])
		for j := range a {
			if a[j] != c[j] {
				t.Fatalf("node %d slot %d: one-shot %v != session %v", i, j, a[j], c[j])
			}
		}
	}
}

// TestSessionReusesTokenVectors is the cross-batch cache contract: a token
// keeps the embedding it was assigned when first observed, even as later
// batches introduce new vocabulary.
func TestSessionReusesTokenVectors(t *testing.T) {
	s := NewSession(Config{})
	b1 := labeledBatch("Person", "Person", "Organization")
	v1 := s.Vectorize(b1)
	before := v1.NodeVector(&b1.Nodes[0])

	b2 := labeledBatch("Person", "Post", "Comment")
	v2 := s.Vectorize(b2)
	after := v2.NodeVector(&b2.Nodes[0])

	if len(before) != len(after) {
		t.Fatalf("vector length changed: %d -> %d", len(before), len(after))
	}
	d := v2.Model().Dim()
	for i := 0; i < d; i++ {
		if before[i] != after[i] {
			t.Fatalf("Person embedding changed across batches at slot %d: %v != %v", i, before[i], after[i])
		}
	}
	for _, tok := range []string{"Person", "Organization", "Post", "Comment"} {
		if !v2.Model().Has(tok) {
			t.Errorf("combined model missing token %q", tok)
		}
	}
}

// TestSessionVectorizerSnapshotIsolated: a Vectorizer must not see tokens
// introduced by later batches — it is an immutable snapshot, which is what
// makes it safe to read while the next batch is being vectorized.
func TestSessionVectorizerSnapshotIsolated(t *testing.T) {
	s := NewSession(Config{})
	v1 := s.Vectorize(labeledBatch("Person"))
	s.Vectorize(labeledBatch("Organization"))

	rec := pg.NodeRecord{Labels: []string{"Organization"}, Props: pg.Properties{"name": pg.Str("x")}}
	vec := v1.NodeVector(&rec)
	for i := 0; i < v1.Model().Dim(); i++ {
		if vec[i] != 0 {
			t.Fatal("snapshot from batch 1 should render batch-2 tokens as unknown (zero block)")
		}
	}
}

// TestVectorIntoMatchesAllocating: the arena renderers must fully overwrite
// dst, so recycled (dirty) slices render identically to fresh allocations.
func TestVectorIntoMatchesAllocating(t *testing.T) {
	b := exampleBatch(t)
	v := New(b, Config{})
	dirtyN := make([]float64, v.NodeDim())
	dirtyE := make([]float64, v.EdgeDim())
	for i := range dirtyN {
		dirtyN[i] = -99
	}
	for i := range dirtyE {
		dirtyE[i] = -99
	}
	for i := range b.Nodes {
		want := v.NodeVector(&b.Nodes[i])
		v.NodeVectorInto(&b.Nodes[i], dirtyN)
		for j := range want {
			if dirtyN[j] != want[j] {
				t.Fatalf("node %d slot %d: Into %v != alloc %v", i, j, dirtyN[j], want[j])
			}
		}
	}
	for i := range b.Edges {
		want := v.EdgeVector(&b.Edges[i])
		v.EdgeVectorInto(&b.Edges[i], dirtyE)
		for j := range want {
			if dirtyE[j] != want[j] {
				t.Fatalf("edge %d slot %d: Into %v != alloc %v", i, j, dirtyE[j], want[j])
			}
		}
	}
}

// TestWeightedBlockMemoized: records sharing a label-set token share the
// same weighted prefix (scaled once per token, not once per record).
func TestWeightedBlockMemoized(t *testing.T) {
	s := NewSession(Config{LabelWeight: 3})
	b := labeledBatch("Person", "Person")
	v := s.Vectorize(b)
	v1, v2 := v.NodeVector(&b.Nodes[0]), v.NodeVector(&b.Nodes[1])
	d := v.Model().Dim()
	for i := 0; i < d; i++ {
		if v1[i] != v2[i] {
			t.Fatal("same token must render the same weighted block")
		}
		if want := 3 * v.Model().Vector("Person")[i]; v1[i] != want {
			t.Fatalf("slot %d = %v, want %v (3x raw)", i, v1[i], want)
		}
	}
}
