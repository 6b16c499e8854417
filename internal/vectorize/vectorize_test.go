package vectorize

import (
	"testing"

	"pghive/internal/pg"
)

func exampleBatch(t testing.TB) *pg.Batch {
	t.Helper()
	g := pg.NewGraph()
	bob := g.AddNode([]string{"Person"}, pg.Properties{"name": pg.Str("Bob"), "gender": pg.Str("m"), "bday": pg.ParseValue("19/12/1999")})
	alice := g.AddNode(nil, pg.Properties{"name": pg.Str("Alice"), "gender": pg.Str("f"), "bday": pg.ParseValue("07/07/1990")})
	org := g.AddNode([]string{"Organization"}, pg.Properties{"name": pg.Str("FORTH"), "url": pg.Str("u")})
	if _, err := g.AddEdge([]string{"WORKS_AT"}, bob, org, pg.Properties{"from": pg.Int(2020)}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddEdge([]string{"KNOWS"}, alice, bob, nil); err != nil {
		t.Fatal(err)
	}
	return g.Snapshot()
}

func TestDimensions(t *testing.T) {
	b := exampleBatch(t)
	v := New(b, Config{})
	d := v.Model().Dim()
	// K = {bday, gender, name, url} = 4, Q = {from} = 1.
	if got, want := v.NodeDim(), d+4; got != want {
		t.Errorf("NodeDim = %d, want %d", got, want)
	}
	if got, want := v.EdgeDim(), 3*d+1; got != want {
		t.Errorf("EdgeDim = %d, want %d", got, want)
	}
}

func TestPropertyKeyLayoutSorted(t *testing.T) {
	b := exampleBatch(t)
	v := New(b, Config{})
	want := []string{"bday", "gender", "name", "url"}
	got := v.NodePropertyKeys()
	if len(got) != len(want) {
		t.Fatalf("NodePropertyKeys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NodePropertyKeys = %v, want %v", got, want)
		}
	}
}

func TestUnlabeledNodeHasZeroEmbeddingBlock(t *testing.T) {
	b := exampleBatch(t)
	v := New(b, Config{})
	var alice *pg.NodeRecord
	for i := range b.Nodes {
		if len(b.Nodes[i].Labels) == 0 {
			alice = &b.Nodes[i]
		}
	}
	if alice == nil {
		t.Fatal("batch should contain an unlabeled node")
	}
	vec := v.NodeVector(alice)
	d := v.Model().Dim()
	for i := 0; i < d; i++ {
		if vec[i] != 0 {
			t.Fatalf("unlabeled node embedding block should be zero, got %v at %d", vec[i], i)
		}
	}
	// Property block: bday, gender, name present; url absent.
	wantBits := []float64{1, 1, 1, 0}
	for i, want := range wantBits {
		if vec[d+i] != want {
			t.Errorf("property bit %d = %v, want %v", i, vec[d+i], want)
		}
	}
}

func TestSameLabelSameStructureSameVector(t *testing.T) {
	g := pg.NewGraph()
	g.AddNode([]string{"Person"}, pg.Properties{"name": pg.Str("a")})
	g.AddNode([]string{"Person"}, pg.Properties{"name": pg.Str("b")})
	b := g.Snapshot()
	v := New(b, Config{})
	v1 := v.NodeVector(&b.Nodes[0])
	v2 := v.NodeVector(&b.Nodes[1])
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("identical label+structure should produce identical vectors")
		}
	}
}

func TestMultiLabelOrderInvariant(t *testing.T) {
	g := pg.NewGraph()
	g.AddNode([]string{"Student", "Person"}, pg.Properties{"name": pg.Str("a")})
	g.AddNode([]string{"Person", "Student"}, pg.Properties{"name": pg.Str("b")})
	b := g.Snapshot()
	v := New(b, Config{})
	v1, v2 := v.NodeVector(&b.Nodes[0]), v.NodeVector(&b.Nodes[1])
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("label order must not affect the vector")
		}
	}
}

func TestEdgeVectorLayout(t *testing.T) {
	b := exampleBatch(t)
	v := New(b, Config{})
	var worksAt *pg.EdgeRecord
	for i := range b.Edges {
		if pg.LabelSetKey(b.Edges[i].Labels) == "WORKS_AT" {
			worksAt = &b.Edges[i]
		}
	}
	vec := v.EdgeVector(worksAt)
	d := v.Model().Dim()
	if len(vec) != 3*d+1 {
		t.Fatalf("edge vector len = %d, want %d", len(vec), 3*d+1)
	}
	// "from" property bit set.
	if vec[3*d] != 1 {
		t.Error("edge property bit should be 1")
	}
	// Source is Person (labeled) so the second block must be nonzero.
	nonzero := false
	for i := d; i < 2*d; i++ {
		if vec[i] != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Error("source-label embedding block should be nonzero")
	}
}

func TestKnowsEdgeUnlabeledSourceBlockZero(t *testing.T) {
	b := exampleBatch(t)
	v := New(b, Config{})
	var knows *pg.EdgeRecord
	for i := range b.Edges {
		if pg.LabelSetKey(b.Edges[i].Labels) == "KNOWS" {
			knows = &b.Edges[i]
		}
	}
	vec := v.EdgeVector(knows)
	d := v.Model().Dim()
	for i := d; i < 2*d; i++ { // source is the unlabeled Alice
		if vec[i] != 0 {
			t.Fatal("unlabeled source block should be zero")
		}
	}
}

func TestLabelTokensCountsEndpoints(t *testing.T) {
	b := exampleBatch(t)
	v := New(b, Config{})
	// Distinct tokens: Person, Organization, WORKS_AT, KNOWS.
	if v.LabelTokens() != 4 {
		t.Errorf("LabelTokens = %d, want 4", v.LabelTokens())
	}
}

func TestNodeSetTokens(t *testing.T) {
	b := exampleBatch(t)
	v := New(b, Config{})
	var bob, alice *pg.NodeRecord
	for i := range b.Nodes {
		switch {
		case len(b.Nodes[i].Labels) == 0:
			alice = &b.Nodes[i]
		case pg.LabelSetKey(b.Nodes[i].Labels) == "Person":
			bob = &b.Nodes[i]
		}
	}
	// Bob: 1 label token + 3 property tokens; Alice: 3 property tokens.
	if got := len(v.NodeSet(bob)); got != 4 {
		t.Errorf("len(NodeSet(bob)) = %d, want 4", got)
	}
	if got := len(v.NodeSet(alice)); got != 3 {
		t.Errorf("len(NodeSet(alice)) = %d, want 3", got)
	}
}

func TestSetTokenNamespacesDisjoint(t *testing.T) {
	// A label token "X" and a property token "X" must hash differently.
	if hashToken('L', "X") == hashToken('P', "X") {
		t.Error("token namespaces collide")
	}
	if hashToken('S', "X") == hashToken('T', "X") {
		t.Error("source/target namespaces collide")
	}
}

func TestEdgeSetIncludesEndpoints(t *testing.T) {
	b := exampleBatch(t)
	v := New(b, Config{})
	for i := range b.Edges {
		e := &b.Edges[i]
		set := v.EdgeSet(e)
		want := len(e.Props) + 1 // label token
		if len(e.SrcLabels) > 0 {
			want++
		}
		if len(e.DstLabels) > 0 {
			want++
		}
		if len(set) != want {
			t.Errorf("edge %d set size = %d, want %d", e.ID, len(set), want)
		}
	}
}

func TestBulkRenderAligned(t *testing.T) {
	b := exampleBatch(t)
	v := New(b, Config{})
	nv := v.NodeVectors(b)
	if len(nv) != len(b.Nodes) {
		t.Fatalf("NodeVectors len = %d, want %d", len(nv), len(b.Nodes))
	}
	ev := v.EdgeVectors(b)
	if len(ev) != len(b.Edges) {
		t.Fatalf("EdgeVectors len = %d, want %d", len(ev), len(b.Edges))
	}
	ns := v.NodeSets(b)
	es := v.EdgeSets(b)
	if len(ns) != len(b.Nodes) || len(es) != len(b.Edges) {
		t.Error("set renders misaligned")
	}
}

func TestEmptyBatch(t *testing.T) {
	v := New(&pg.Batch{}, Config{})
	if v.NodeDim() != v.Model().Dim() {
		t.Errorf("empty batch NodeDim = %d, want %d", v.NodeDim(), v.Model().Dim())
	}
	if v.LabelTokens() != 0 {
		t.Errorf("LabelTokens = %d, want 0", v.LabelTokens())
	}
}

func TestLabelWeightScalesEmbeddingBlock(t *testing.T) {
	b := exampleBatch(t)
	base := New(b, Config{LabelWeight: 1})
	heavy := New(b, Config{LabelWeight: 3})
	var bob *pg.NodeRecord
	for i := range b.Nodes {
		if pg.LabelSetKey(b.Nodes[i].Labels) == "Person" {
			bob = &b.Nodes[i]
		}
	}
	vBase, vHeavy := base.NodeVector(bob), heavy.NodeVector(bob)
	d := base.Model().Dim()
	for i := 0; i < d; i++ {
		if vHeavy[i] != 3*vBase[i] {
			t.Fatalf("embedding slot %d: %v != 3x%v", i, vHeavy[i], vBase[i])
		}
	}
	// Property bits are untouched.
	for i := d; i < len(vBase); i++ {
		if vHeavy[i] != vBase[i] {
			t.Fatalf("property slot %d scaled unexpectedly", i)
		}
	}
}

func TestLabelWeightDefaultApplied(t *testing.T) {
	b := exampleBatch(t)
	zero := New(b, Config{})
	explicit := New(b, Config{LabelWeight: DefaultLabelWeight})
	v1 := zero.NodeVector(&b.Nodes[0])
	v2 := explicit.NodeVector(&b.Nodes[0])
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("zero LabelWeight should mean the default")
		}
	}
}
