package pg

import (
	"hash/maphash"
	"math/bits"
	"slices"
)

// Shape is one distinct element shape of a batch: an element's label lists
// exactly as given plus its property-key set, the content a PG-Schema type
// is built from. An element's hybrid vector (§4.1), its LSH signatures and
// the symbols extraction interns for it are functions of its shape alone,
// and shapes repeat heavily within a batch, so every stage before value
// observation runs once per shape (ShapeIndex).
type Shape struct {
	// Labels, SrcLabels and DstLabels are the label lists of the shape's
	// first element, in their given order (SrcLabels and DstLabels are nil
	// on node shapes). They alias batch storage.
	Labels, SrcLabels, DstLabels []string
	// Keys holds the property keys in ascending order. It aliases the
	// index's key arena.
	Keys []string
}

// ShapeIndex is one batch's element shapes: the distinct node and edge
// shapes in first-appearance order and, per element, the shape it has. Two
// elements share a shape exactly when their label lists are equal element
// by element and their key sets are equal; a label list order or a split
// label ("a&b" vs "a", "b") makes a different shape, even where both render
// the same vector.
type ShapeIndex struct {
	Nodes, Edges []Shape
	// NodeShape and EdgeShape map each element of the batch to its index in
	// Nodes or Edges.
	NodeShape, EdgeShape []int32
}

// shapeSeed keys the shape hash. A hash only picks a bucket: shapes are
// compared exactly, so the seed never changes an index.
var shapeSeed = maphash.MakeSeed()

// IndexShapes builds the batch's shape index in one pass over its
// elements. Per element it hashes the property keys into a reused scratch
// slice, hashes the label lists plus the key count and an order-free sum of
// the key hashes, and compares against the shapes already in that hash's
// bucket: the label lists one by one, the keys through the shape's probe
// table, so no element's keys are sorted. Only a new shape stores
// anything: its sorted keys, and once an element is compared with it its
// probe table, in chunked arenas.
func IndexShapes(b *Batch) *ShapeIndex {
	x := &shapeIndexer{
		heads: make(map[uint64]int32),
		idx: &ShapeIndex{
			NodeShape: make([]int32, len(b.Nodes)),
			EdgeShape: make([]int32, len(b.Edges)),
		},
	}
	for i := range b.Nodes {
		n := &b.Nodes[i]
		x.idx.NodeShape[i] = x.lookup(&x.idx.Nodes, n.Labels, nil, nil, n.Props)
	}
	clear(x.heads)
	x.next, x.tables = x.next[:0], x.tables[:0]
	for i := range b.Edges {
		e := &b.Edges[i]
		x.idx.EdgeShape[i] = x.lookup(&x.idx.Edges, e.Labels, e.SrcLabels, e.DstLabels, e.Props)
	}
	return x.idx
}

// shapeIndexer is the state of one IndexShapes pass over one element kind.
// heads maps a shape hash to the newest shape with that hash, and next
// chains each shape to the previous one with the same hash, so a hash
// collision costs a comparison, never a wrong shape.
type shapeIndexer struct {
	idx   *ShapeIndex
	heads map[uint64]int32
	next  []int32
	// tables holds each shape's probe table (keySlot), built when an
	// element is first compared with the shape: a shape no later element
	// hashes to never needs one.
	tables [][]keySlot
	keys   []hashedKey // scratch: the current element's keys
	arena  []string    // the current chunk of the key arena
	slots  []keySlot   // the current chunk of the probe-table arena
}

// hashedKey is a property key with its hash.
type hashedKey struct {
	h uint64
	k string
}

// keySlot is one slot of a shape's open-addressing probe table, which
// finds a key among the shape's keys: the table has a power-of-two size of
// at least twice the keys, a key's probe starts at its hash's low bits, and
// a slot holds the hash's high bits and the key's index in Shape.Keys plus
// one (0: empty).
type keySlot struct {
	high uint32
	key  int32
}

// lookup returns the shape id of an element with the given label lists and
// properties, appending a new shape to shapes on first sight.
func (x *shapeIndexer) lookup(shapes *[]Shape, labels, src, dst []string, props Properties) int32 {
	keys := x.keys[:0]
	var sum uint64
	for k := range props {
		h := maphash.String(shapeSeed, k)
		keys = append(keys, hashedKey{h, k})
		sum += h
	}
	x.keys = keys

	h := shapeHash(labels, src, dst, len(keys), sum)
	head, seen := x.heads[h]
	if seen {
		for id := head; id >= 0; id = x.next[id] {
			s := &(*shapes)[id]
			if slices.Equal(s.Labels, labels) && slices.Equal(s.SrcLabels, src) &&
				slices.Equal(s.DstLabels, dst) && x.hasKeys(id, s.Keys, keys) {
				return id
			}
		}
	} else {
		head = -1
	}
	id := int32(len(*shapes))
	if len(*shapes) == cap(*shapes) {
		// Double: append's 1.25× steps would copy a batch of distinct
		// shapes about five times over.
		*shapes = slices.Grow(*shapes, len(*shapes)+1)
		x.next = slices.Grow(x.next, cap(*shapes)-len(x.next))
		x.tables = slices.Grow(x.tables, cap(*shapes)-len(x.tables))
	}
	sorted := keep(&x.arena, len(keys))
	for i, k := range keys {
		sorted[i] = k.k
	}
	slices.Sort(sorted)
	*shapes = append(*shapes, Shape{Labels: labels, SrcLabels: src, DstLabels: dst, Keys: sorted})
	x.tables = append(x.tables, nil)
	x.next = append(x.next, head)
	x.heads[h] = id
	return id
}

// probeTable builds the probe table of a shape's keys.
func (x *shapeIndexer) probeTable(keys []string) []keySlot {
	size := 1
	for size < 2*len(keys) {
		size *= 2
	}
	table := keep(&x.slots, size)
	for i, k := range keys {
		h := maphash.String(shapeSeed, k)
		s := int(h) & (size - 1)
		for table[s].key != 0 {
			s = (s + 1) & (size - 1)
		}
		table[s] = keySlot{high: uint32(h >> 32), key: int32(i + 1)}
	}
	return table
}

// hasKeys reports whether an element's keys are shape id's: there are as
// many, and each is found among the shape's keys. The element's keys are
// distinct (map keys), so that makes the sets equal.
func (x *shapeIndexer) hasKeys(id int32, shapeKeys []string, keys []hashedKey) bool {
	if len(keys) != len(shapeKeys) {
		return false
	}
	table := x.tables[id]
	if table == nil {
		table = x.probeTable(shapeKeys)
		x.tables[id] = table
	}
	mask := len(table) - 1
	for _, k := range keys {
		for s := int(k.h) & mask; ; s = (s + 1) & mask {
			slot := table[s]
			if slot.key == 0 {
				return false
			}
			if slot.high == uint32(k.h>>32) && shapeKeys[slot.key-1] == k.k {
				break
			}
		}
	}
	return true
}

// maxChunk caps an arena chunk's size (in items), so the last chunk's
// unused tail stays small.
const maxChunk = 4096

// keep returns n zeroed slots of an arena for a new shape. The arena is a
// chain of chunks that never move and whose slots are handed out once: a
// chunk too full for the request is left behind for a new one, twice its
// size up to maxChunk, so keeping copies each item once and allocates
// little beyond the items.
func keep[T any](arena *[]T, n int) []T {
	if len(*arena)+n > cap(*arena) {
		size := 2 * cap(*arena)
		if size > maxChunk {
			size = maxChunk
		}
		*arena = make([]T, 0, max(size, n, 64))
	}
	start := len(*arena)
	*arena = (*arena)[:start+n]
	return (*arena)[start : start+n : start+n]
}

// shapeHash hashes a shape: each label list, then its key count and the
// sum of its key hashes, which no enumeration order changes.
func shapeHash(labels, src, dst []string, keys int, sum uint64) uint64 {
	return mixShape(mixShape(hashList(hashList(hashList(0, labels), src), dst), uint64(keys)), sum)
}

// hashList folds a string list into h: its length, then each string's
// hash, so a list boundary and a string boundary hash differently.
func hashList(h uint64, list []string) uint64 {
	h = mixShape(h, uint64(len(list)))
	for _, s := range list {
		h = mixShape(h, maphash.String(shapeSeed, s))
	}
	return h
}

func mixShape(h, x uint64) uint64 {
	return bits.RotateLeft64((h^x)*0x9e3779b97f4a7c15, 29)
}
