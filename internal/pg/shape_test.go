package pg

import (
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// shapeKeys returns the property keys in ascending order.
func shapeKeys(p Properties) []string {
	keys := p.Keys()
	sort.Strings(keys)
	return keys
}

// checkShapes holds an index to its contract for one element kind: two
// elements share a shape iff their label lists are equal element by
// element and their key sets are equal; a shape holds its first element's
// lists and sorted keys; and shapes are numbered in first-appearance order.
func checkShapes(t *testing.T, kind string, shapes []Shape, ids []int32, lists func(i int) [3][]string, props func(i int) Properties) {
	t.Helper()
	if len(ids) == 0 {
		return
	}
	next := int32(0)
	for i, id := range ids {
		switch {
		case id == next:
			want := Shape{Labels: lists(i)[0], SrcLabels: lists(i)[1], DstLabels: lists(i)[2], Keys: shapeKeys(props(i))}
			got := shapes[id]
			if !slices.Equal(got.Labels, want.Labels) || !slices.Equal(got.SrcLabels, want.SrcLabels) ||
				!slices.Equal(got.DstLabels, want.DstLabels) || !slices.Equal(got.Keys, want.Keys) {
				t.Fatalf("%s %d: shape %d is %+v, want its first element's %+v", kind, i, id, got, want)
			}
			next++
		case id > next:
			t.Fatalf("%s %d: shape %d before shape %d appeared", kind, i, id, next)
		}
	}
	if int(next) != len(shapes) {
		t.Fatalf("%s: %d shapes, %d appear", kind, len(shapes), next)
	}
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			li, lj := lists(i), lists(j)
			same := slices.Equal(li[0], lj[0]) && slices.Equal(li[1], lj[1]) && slices.Equal(li[2], lj[2]) &&
				slices.Equal(shapeKeys(props(i)), shapeKeys(props(j)))
			if got := ids[i] == ids[j]; got != same {
				t.Fatalf("%s %d %v %v and %d %v %v: same shape = %v, want %v",
					kind, i, li, shapeKeys(props(i)), j, lj, shapeKeys(props(j)), got, same)
			}
		}
	}
}

func checkIndex(t *testing.T, b *Batch) *ShapeIndex {
	t.Helper()
	idx := IndexShapes(b)
	if len(idx.NodeShape) != len(b.Nodes) || len(idx.EdgeShape) != len(b.Edges) {
		t.Fatalf("%d/%d shape ids for %d nodes and %d edges", len(idx.NodeShape), len(idx.EdgeShape), len(b.Nodes), len(b.Edges))
	}
	checkShapes(t, "node", idx.Nodes, idx.NodeShape,
		func(i int) [3][]string { return [3][]string{b.Nodes[i].Labels} },
		func(i int) Properties { return b.Nodes[i].Props })
	checkShapes(t, "edge", idx.Edges, idx.EdgeShape,
		func(i int) [3][]string {
			return [3][]string{b.Edges[i].Labels, b.Edges[i].SrcLabels, b.Edges[i].DstLabels}
		},
		func(i int) Properties { return b.Edges[i].Props })
	return idx
}

// TestShapeIndexProperty: over random batches drawn from small label and
// key pools — permuted label lists, a label holding the separator of a
// joined label set, labels that concatenate to another label, keys equal
// to labels — the index groups exactly the elements with equal label lists
// and key sets, in first-appearance order.
func TestShapeIndexProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	labelPool := [][]string{nil, {}, {"a"}, {"b"}, {"ab"}, {"a", "b"}, {"b", "a"}, {"a&b"}, {"a", "b", "c"}, {""}}
	keyPool := []string{"a", "b", "ab", "x", "y", "", "a&b"}
	props := func() Properties {
		p := Properties{}
		for _, k := range keyPool {
			if rng.Intn(3) == 0 {
				p[k] = Int(1)
			}
		}
		if len(p) == 0 && rng.Intn(2) == 0 {
			return nil
		}
		return p
	}
	label := func() []string { return labelPool[rng.Intn(len(labelPool))] }
	for round := 0; round < 20; round++ {
		b := &Batch{}
		for i := 0; i < 150; i++ {
			b.Nodes = append(b.Nodes, NodeRecord{Labels: label(), Props: props()})
			b.Edges = append(b.Edges, EdgeRecord{Labels: label(), SrcLabels: label(), DstLabels: label(), Props: props()})
		}
		checkIndex(t, b)
	}
}

// TestShapeIndexBoundaries: shapes whose parts would run together without
// their boundaries stay apart — a split label beside the joined one, a
// label beside a key, and each edge list beside its neighbour.
func TestShapeIndexBoundaries(t *testing.T) {
	b := &Batch{
		Nodes: []NodeRecord{
			{Labels: []string{"a", "b"}},
			{Labels: []string{"ab"}},
			{Labels: []string{"a"}, Props: Properties{"b": Int(1)}},
			{Labels: []string{"a", "b"}, Props: Properties{}},
			{Labels: []string{"b", "a"}},
			{Labels: []string{"a&b"}},
			{Props: Properties{"a": Int(1), "b": Int(1)}},
			{Props: Properties{"ab": Int(1)}},
		},
		Edges: []EdgeRecord{
			{Labels: []string{"a"}, SrcLabels: []string{"b"}},
			{Labels: []string{"a", "b"}},
			{SrcLabels: []string{"a"}, DstLabels: []string{"b"}},
			{SrcLabels: []string{"a", "b"}},
			{DstLabels: []string{"x"}},
			{Props: Properties{"x": Int(1)}},
			{Labels: []string{"a"}, SrcLabels: []string{"b"}, Props: Properties{"z": Int(1)}},
		},
	}
	idx := checkIndex(t, b)
	// The fourth node repeats the first (no props and empty props agree);
	// every other element is its own shape.
	if want := []int32{0, 1, 2, 0, 3, 4, 5, 6}; !slices.Equal(idx.NodeShape, want) {
		t.Errorf("node shapes %v, want %v", idx.NodeShape, want)
	}
	if want := []int32{0, 1, 2, 3, 4, 5, 6}; !slices.Equal(idx.EdgeShape, want) {
		t.Errorf("edge shapes %v, want %v", idx.EdgeShape, want)
	}
}

// TestShapeIndexHashCollision: shapes whose hashes collide chain in one
// bucket and are still told apart by comparison. The collisions are forced
// by pointing a new shape's bucket at an existing shape.
func TestShapeIndexHashCollision(t *testing.T) {
	x := &shapeIndexer{heads: map[uint64]int32{}, idx: &ShapeIndex{}}
	hash := func(labels []string) uint64 { return shapeHash(labels, nil, nil, 0, 0) }
	a, b, c := []string{"A"}, []string{"B"}, []string{"C"}
	if id := x.lookup(&x.idx.Nodes, a, nil, nil, nil); id != 0 {
		t.Fatalf("first shape id %d, want 0", id)
	}
	x.heads[hash(b)] = 0
	if id := x.lookup(&x.idx.Nodes, b, nil, nil, nil); id != 1 {
		t.Fatalf("B colliding with A got id %d, want a new shape 1", id)
	}
	x.heads[hash(c)] = 1
	if id := x.lookup(&x.idx.Nodes, c, nil, nil, nil); id != 2 {
		t.Fatalf("C colliding with B and A got id %d, want a new shape 2", id)
	}
	for i, labels := range [][]string{a, b, c, b, a} {
		want := map[string]int32{"A": 0, "B": 1, "C": 2}[labels[0]]
		if id := x.lookup(&x.idx.Nodes, labels, nil, nil, nil); id != want {
			t.Errorf("lookup %d of %v = %d, want %d", i, labels, id, want)
		}
	}
	if len(x.idx.Nodes) != 3 {
		t.Errorf("%d shapes, want 3", len(x.idx.Nodes))
	}
}

// TestHasKeysHashCollision: finding an element's keys among a shape's
// compares the strings, so a key whose hash collides with one of the
// shape's keys is not taken for it. The collision is forced by handing the
// element's key the other key's hash.
func TestHasKeysHashCollision(t *testing.T) {
	hashed := func(keys ...string) []hashedKey {
		out := make([]hashedKey, len(keys))
		for i, k := range keys {
			out[i] = hashedKey{maphash.String(shapeSeed, k), k}
		}
		return out
	}
	shape := []string{"a", "b", "c"}
	x := &shapeIndexer{tables: make([][]keySlot, 2)}
	if !x.hasKeys(0, shape, hashed("c", "a", "b")) {
		t.Fatal("the shape's own keys, reordered, are not found")
	}
	collide := hashed("c", "a", "b")
	collide[2].k = "z"
	if x.hasKeys(0, shape, collide) {
		t.Fatal(`"z" with the hash of "b" was taken for "b"`)
	}
	if x.hasKeys(0, shape, hashed("c", "a")) {
		t.Fatal("a subset of the shape's keys was taken for the shape's")
	}
	if !x.hasKeys(1, nil, nil) {
		t.Fatal("no keys are not the empty shape's")
	}
}

// BenchmarkIndexShapes measures the index pass over a batch of few,
// heavily repeated shapes and over one where almost every node has its own
// shape (a random subset of 16 keys).
func BenchmarkIndexShapes(bm *testing.B) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]string, 16)
	for k := range keys {
		keys[k] = fmt.Sprintf("key%02d", k)
	}
	few, distinct := &Batch{}, &Batch{}
	for i := 0; i < 20000; i++ {
		p := Properties{}
		for _, k := range keys[:4+i%3] {
			p[k] = Int(1)
		}
		few.Nodes = append(few.Nodes, NodeRecord{Labels: []string{keys[i%5]}, Props: p})
		q := Properties{}
		for _, k := range keys {
			if rng.Intn(2) == 0 {
				q[k] = Int(1)
			}
		}
		distinct.Nodes = append(distinct.Nodes, NodeRecord{Labels: []string{"N"}, Props: q})
	}
	for _, c := range []struct {
		name string
		b    *Batch
	}{{"repeated", few}, {"distinct", distinct}} {
		bm.Run(c.name, func(bm *testing.B) {
			bm.ReportAllocs()
			for i := 0; i < bm.N; i++ {
				IndexShapes(c.b)
			}
		})
	}
}
