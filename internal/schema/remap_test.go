package schema

import (
	"fmt"
	"sort"
	"testing"

	"pghive/internal/pg"
)

func TestNewRemapRoundTrip(t *testing.T) {
	src := NewSymtab()
	dst := NewSymtab()
	// dst already knows some symbols, in a different order than src will
	// mint them — the remap must follow symbols, not ID arithmetic.
	dst.Intern("c")
	dst.Intern("a")
	for _, s := range []string{"a", "b", "c", "d"} {
		src.Intern(s)
	}

	table := NewRemap(src, dst)
	if len(table) != src.Strings() {
		t.Fatalf("table has %d entries, want one per source string (%d)", len(table), src.Strings())
	}
	for id := uint32(0); int(id) < src.Strings(); id++ {
		if got, want := dst.Str(table[id]), src.Str(id); got != want {
			t.Errorf("string %d: remapped to %q, want %q", id, got, want)
		}
	}

	// Injectivity: no two source IDs may collapse onto one destination ID.
	seen := map[uint32]uint32{}
	for id, to := range table {
		if prev, dup := seen[to]; dup {
			t.Fatalf("string IDs %d and %d both remap to %d", prev, id, to)
		}
		seen[to] = uint32(id)
	}
}

func TestNewRemapDeterministic(t *testing.T) {
	src := NewSymtab()
	for _, s := range []string{"x", "y", "z"} {
		src.Intern(s)
	}
	dstA, dstB := NewSymtab(), NewSymtab()
	dstA.Intern("seed")
	dstB.Intern("seed")
	tableA, tableB := NewRemap(src, dstA), NewRemap(src, dstB)
	for id := range tableA {
		if tableA[id] != tableB[id] {
			t.Fatalf("remap into equal destinations diverged at string %d", id)
		}
	}
}

func TestRemapIDs(t *testing.T) {
	// A translation that reverses relative order: the result must come back
	// sorted with the same cardinality.
	table := []uint32{9, 7, 5, 3, 1}
	in := IDSet{0, 2, 4}
	out := RemapIDs(in, table)
	if want := (IDSet{1, 5, 9}); !out.Equal(want) {
		t.Fatalf("RemapIDs(%v) = %v, want %v", in, out, want)
	}
	if in[0] != 0 || in[1] != 2 || in[2] != 4 {
		t.Fatal("RemapIDs mutated its input")
	}

	clone := RemapIDs(in, nil)
	if !clone.Equal(in) {
		t.Fatalf("nil table: got %v, want clone of %v", clone, in)
	}
	clone[0] = 99
	if in[0] == 99 {
		t.Fatal("nil-table RemapIDs aliased its input")
	}

	if RemapIDs(nil, table) != nil {
		t.Fatal("empty set must remap to nil")
	}
}

func TestTypeMergeCrossTab(t *testing.T) {
	build := func(tab *Symtab) *Type {
		ty := NewType(tab, EdgeKind)
		ty.AddLabel("KNOWS")
		ty.AddSrcLabel("Person")
		ty.AddDstLabel("Person")
		p := NewPropStat()
		p.Observe(pg.Int(1))
		ty.SetProp("since", p)
		ty.AddOutDeg(pg.ID(1), 2)
		ty.AddInDeg(pg.ID(2), 1)
		ty.Instances = 3
		return ty
	}

	// Same evidence interned against two independent tables, where the
	// "other" table has extra symbols shifting every ID.
	tabA, tabB := NewSymtab(), NewSymtab()
	tabB.Intern("pad0")
	tabB.Intern("pad1")
	a, b := build(tabA), build(tabB)
	p := NewPropStat()
	p.Observe(pg.Str("x"))
	b.SetProp("note", p)

	a.Merge(b) // cross-tab: must auto-remap, not panic

	if a.Instances != 6 {
		t.Errorf("Instances = %d, want 6", a.Instances)
	}
	if got := a.Labels().Sorted(); len(got) != 1 || got[0] != "KNOWS" {
		t.Errorf("labels = %v, want [KNOWS]", got)
	}
	keys := a.PropKeyStrings()
	sort.Strings(keys)
	if fmt.Sprint(keys) != "[note since]" {
		t.Errorf("prop keys = %v, want [note since]", keys)
	}
	if got := a.Prop("since").Count; got != 2 {
		t.Errorf("since.Count = %d, want 2", got)
	}
	// Degree evidence must land on the same endpoints, not on shifted IDs.
	deg := a.MaxDegrees()
	if deg.MaxOut != 4 || deg.MaxIn != 2 {
		t.Errorf("degrees = %+v, want MaxOut 4 MaxIn 2", deg)
	}
	if a.OutDistinct() != 1 || a.InDistinct() != 1 {
		t.Errorf("distinct endpoints = %d/%d, want 1/1", a.OutDistinct(), a.InDistinct())
	}
}

// FuzzRemapIDs drives RemapIDs with arbitrary sets and translation tables
// derived from the fuzz input and checks the invariants the shard merge
// relies on: sorted output, cardinality preserved under injective tables,
// and exact round-trip through the inverse table.
func FuzzRemapIDs(f *testing.F) {
	f.Add([]byte{0, 1, 2}, uint8(5))
	f.Add([]byte{9, 3, 3, 7}, uint8(16))
	f.Add([]byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, size uint8) {
		n := int(size)%64 + 1
		// Injective table: a permutation of [0,n) seeded by the raw bytes.
		table := make([]uint32, n)
		for i := range table {
			table[i] = uint32(i)
		}
		for i, b := range raw {
			j, k := int(b)%n, (i+int(b)/8)%n
			table[j], table[k] = table[k], table[j]
		}
		inverse := make([]uint32, n)
		for from, to := range table {
			inverse[to] = uint32(from)
		}

		var in IDSet
		for _, b := range raw {
			in.Insert(uint32(b) % uint32(n))
		}

		out := RemapIDs(in, table)
		if len(out) != len(in) {
			t.Fatalf("cardinality changed: %d -> %d", len(in), len(out))
		}
		for i := 1; i < len(out); i++ {
			if out[i-1] >= out[i] {
				t.Fatalf("output not strictly sorted: %v", out)
			}
		}
		back := RemapIDs(out, inverse)
		if !back.Equal(in) {
			t.Fatalf("round-trip: %v -> %v -> %v", in, out, back)
		}
	})
}
