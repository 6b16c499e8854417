package vectorize

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"pghive/internal/pg"
)

// materialize reconstructs element i's dense hybrid vector from its
// shape's compact record: prefix floats then 0/1 suffix.
func materialize(e *Encoding, i int) []float64 {
	v := make([]float64, e.Dim)
	r := e.Records[e.RecordOf[i]]
	copy(v, e.Prefixes[r.TokenID])
	for _, k := range r.Props {
		v[e.PrefixDim+int(k)] = 1
	}
	return v
}

// randomBatch draws a batch over a property vocabulary of size keys with
// ~nnz presence per key and a small pool of (multi-)label sets, including
// unlabeled elements — the §4.1 shapes the factored encoding must cover.
func randomBatch(rng *rand.Rand, nodes, edges, keys int, nnz float64) *pg.Batch {
	labelPool := [][]string{nil, {"A"}, {"B"}, {"A", "B"}, {"C"}, {"Long", "Set", "C"}}
	props := func() pg.Properties {
		p := pg.Properties{}
		for k := 0; k < keys; k++ {
			if rng.Float64() < nnz {
				p[fmt.Sprintf("k%03d", k)] = pg.Int(int64(k))
			}
		}
		return p
	}
	b := &pg.Batch{}
	for i := 0; i < nodes; i++ {
		b.Nodes = append(b.Nodes, pg.NodeRecord{
			Labels: labelPool[rng.Intn(len(labelPool))],
			Props:  props(),
		})
	}
	for i := 0; i < edges; i++ {
		b.Edges = append(b.Edges, pg.EdgeRecord{
			Labels:    labelPool[rng.Intn(len(labelPool))],
			SrcLabels: labelPool[rng.Intn(len(labelPool))],
			DstLabels: labelPool[rng.Intn(len(labelPool))],
			Props:     props(),
		})
	}
	return b
}

// TestEncodingMatchesDenseVectors: for random batches over vocabularies up
// to K=512, the compact records reconstruct exactly the vectors
// NodeVector/EdgeVector render — same floats, same suffix bits — and the
// property indexes arrive sorted ascending (the dense dot loop's visit
// order, which the factored kernel's bit-identity depends on).
func TestEncodingMatchesDenseVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		keys int
		nnz  float64
	}{{8, 0.5}, {64, 0.1}, {512, 0.01}} {
		t.Run(fmt.Sprintf("K=%d", tc.keys), func(t *testing.T) {
			b := randomBatch(rng, 60, 60, tc.keys, tc.nnz)
			v := New(b, Config{})
			for kind, enc := range map[string]*Encoding{
				"nodes": v.NodeEncoding(),
				"edges": v.EdgeEncoding(),
			} {
				var n int
				var dense func(i int) []float64
				if kind == "nodes" {
					n = len(b.Nodes)
					dense = func(i int) []float64 { return v.NodeVector(&b.Nodes[i]) }
				} else {
					n = len(b.Edges)
					dense = func(i int) []float64 { return v.EdgeVector(&b.Edges[i]) }
				}
				if len(enc.RecordOf) != n {
					t.Fatalf("%s: %d record ids for %d elements", kind, len(enc.RecordOf), n)
				}
				for i := 0; i < n; i++ {
					want := dense(i)
					got := materialize(enc, i)
					if len(want) != len(got) {
						t.Fatalf("%s[%d]: dim %d vs %d", kind, i, len(got), len(want))
					}
					for d := range want {
						if want[d] != got[d] {
							t.Fatalf("%s[%d] dim %d: %v vs dense %v", kind, i, d, got[d], want[d])
						}
					}
					props := enc.Records[enc.RecordOf[i]].Props
					if !sort.SliceIsSorted(props, func(a, b int) bool { return props[a] < props[b] }) {
						t.Fatalf("%s[%d]: property indexes not ascending: %v", kind, i, props)
					}
				}
			}
		})
	}
}

// TestEncodingSetsMatchDenseSets: AppendSet yields the same token multiset
// as NodeSet/EdgeSet (order-insensitive — MinHash minima ignore order).
func TestEncodingSetsMatchDenseSets(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := randomBatch(rng, 80, 80, 32, 0.3)
	v := New(b, Config{})

	sorted := func(s []uint64) []uint64 {
		out := append([]uint64(nil), s...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	check := func(kind string, enc *Encoding, n int, dense func(i int) []uint64) {
		for i := 0; i < n; i++ {
			want := sorted(dense(i))
			got := sorted(enc.AppendSet(nil, int(enc.RecordOf[i])))
			if len(want) != len(got) {
				t.Fatalf("%s[%d]: set size %d vs dense %d", kind, i, len(got), len(want))
			}
			for j := range want {
				if want[j] != got[j] {
					t.Fatalf("%s[%d]: token multiset diverges at %d: %v vs %v", kind, i, j, got, want)
				}
			}
		}
	}
	check("nodes", v.NodeEncoding(), len(b.Nodes), func(i int) []uint64 { return v.NodeSet(&b.Nodes[i]) })
	check("edges", v.EdgeEncoding(), len(b.Edges), func(i int) []uint64 { return v.EdgeSet(&b.Edges[i]) })
}

// TestEncodingRecordTable: the encoding holds one record per shape, in
// first-appearance order, and maps every element to its shape's record:
// elements with equal label lists and key sets share one, whatever their
// values, and every other element gets its own.
func TestEncodingRecordTable(t *testing.T) {
	b := &pg.Batch{Nodes: []pg.NodeRecord{
		{Labels: []string{"A"}, Props: pg.Properties{"x": pg.Int(1)}},
		{Labels: []string{"B"}, Props: pg.Properties{"x": pg.Int(1)}},
		{Labels: []string{"A"}, Props: pg.Properties{"x": pg.Int(2)}}, // same shape as 0
		{Labels: []string{"A"}, Props: pg.Properties{"y": pg.Int(1)}},
		{Labels: []string{"A"}, Props: pg.Properties{"x": pg.Int(1), "y": pg.Int(1)}},
		{Labels: nil, Props: pg.Properties{"x": pg.Int(1)}},
	}}
	v := New(b, Config{})
	enc := v.NodeEncoding()
	if want := []int32{0, 1, 0, 2, 3, 4}; !slices.Equal(enc.RecordOf, want) {
		t.Fatalf("RecordOf = %v, want %v", enc.RecordOf, want)
	}
	want := []Record{
		{TokenID: 0, Props: []int32{0}},
		{TokenID: 1, Props: []int32{0}},
		{TokenID: 0, Props: []int32{1}},
		{TokenID: 0, Props: []int32{0, 1}},
		{TokenID: 2, Props: []int32{0}},
	}
	if !reflect.DeepEqual(enc.Records, want) {
		t.Fatalf("Records = %v, want %v", enc.Records, want)
	}
}

// TestEncodingPrefixSharing: node prefixes alias the session's weighted
// memo (no per-element copies), and edges observe one prefix per distinct
// label triple.
func TestEncodingPrefixSharing(t *testing.T) {
	b := &pg.Batch{}
	for i := 0; i < 10; i++ {
		b.Nodes = append(b.Nodes, pg.NodeRecord{Labels: []string{"P"}, Props: pg.Properties{"a": pg.Int(1)}})
		b.Edges = append(b.Edges, pg.EdgeRecord{
			Labels: []string{"E"}, SrcLabels: []string{"P"}, DstLabels: []string{"P"},
		})
	}
	v := New(b, Config{})
	ne := v.NodeEncoding()
	if len(ne.Prefixes) != 1 {
		t.Fatalf("10 identically-labeled nodes produced %d prefixes, want 1", len(ne.Prefixes))
	}
	ee := v.EdgeEncoding()
	if len(ee.Prefixes) != 1 {
		t.Fatalf("10 identical-triple edges produced %d prefixes, want 1", len(ee.Prefixes))
	}
	if got, want := len(ee.Prefixes[0]), ee.PrefixDim; got != want {
		t.Fatalf("edge prefix length %d, want %d", got, want)
	}
	if len(ee.PrefixSets[0]) != 3 {
		t.Fatalf("edge prefix carries %d tokens, want 3 (L, S, T)", len(ee.PrefixSets[0]))
	}
}
