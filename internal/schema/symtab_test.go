package schema

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"pghive/internal/pg"
)

func TestSymtabInternAssignsDenseIDs(t *testing.T) {
	tab := NewSymtab()
	a := tab.Intern("alpha")
	b := tab.Intern("beta")
	if a != 0 || b != 1 {
		t.Errorf("IDs = %d,%d, want dense 0,1", a, b)
	}
	if tab.Intern("alpha") != a {
		t.Error("re-interning must return the same ID")
	}
	if tab.Str(a) != "alpha" || tab.Str(b) != "beta" {
		t.Error("Str does not invert Intern")
	}
	if id, ok := tab.Lookup("beta"); !ok || id != b {
		t.Error("Lookup failed for interned string")
	}
	if _, ok := tab.Lookup("gamma"); ok {
		t.Error("Lookup succeeded for unseen string")
	}
	if tab.Strings() != 2 {
		t.Errorf("Strings = %d, want 2", tab.Strings())
	}
}

func encodeSymtab(t testing.TB, tab *Symtab) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := pg.NewWireWriter(&buf)
	WriteSymtab(w, tab)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSymtabRoundTripPreservesIDs(t *testing.T) {
	tab := NewSymtab()
	for _, s := range []string{"Person", "name", "", "a&b", "KNOWS"} {
		tab.Intern(s)
	}
	enc := encodeSymtab(t, tab)
	got, err := ReadSymtab(pg.NewWireReader(bytes.NewReader(enc)))
	if err != nil {
		t.Fatalf("ReadSymtab: %v", err)
	}
	// Exact ID preservation is what keeps a resumed run deterministic.
	for _, s := range []string{"Person", "name", "", "a&b", "KNOWS"} {
		want, _ := tab.Lookup(s)
		if id, ok := got.Lookup(s); !ok || id != want {
			t.Errorf("Lookup(%q) = %d,%t, want %d", s, id, ok, want)
		}
	}
	if re := encodeSymtab(t, got); !bytes.Equal(enc, re) {
		t.Error("re-encoding the decoded symtab differs")
	}
}

func TestSymtabReadRejectsDuplicates(t *testing.T) {
	var buf bytes.Buffer
	w := pg.NewWireWriter(&buf)
	w.Uvarint(2)
	w.String("dup")
	w.String("dup")
	w.Uvarint(0)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSymtab(pg.NewWireReader(bytes.NewReader(buf.Bytes()))); err == nil {
		t.Error("duplicate string entry must be rejected")
	}
}

// FuzzReadSymtab feeds arbitrary bytes to the symtab decoder: it must never
// panic, and whatever decodes successfully must re-encode to a decodable
// table with the same contents (the checkpoint determinism invariant).
func FuzzReadSymtab(f *testing.F) {
	tab := NewSymtab()
	tab.Intern("Person")
	tab.Intern("name")
	var seed bytes.Buffer
	w := pg.NewWireWriter(&seed)
	WriteSymtab(w, tab)
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x01, 0x41, 0x01, 0x41, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadSymtab(pg.NewWireReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		bw := pg.NewWireWriter(&buf)
		WriteSymtab(bw, got)
		if err := bw.Flush(); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		again, err := ReadSymtab(pg.NewWireReader(bytes.NewReader(buf.Bytes())))
		if err != nil {
			t.Fatalf("decoded table failed to round-trip: %v", err)
		}
		if again.Strings() != got.Strings() {
			t.Fatalf("round trip changed sizes: %d vs %d", got.Strings(), again.Strings())
		}
	})
}

func TestIDSetOps(t *testing.T) {
	var s IDSet
	for _, id := range []uint32{5, 1, 3, 1, 5} {
		s.Insert(id)
	}
	if len(s) != 3 || s[0] != 1 || s[1] != 3 || s[2] != 5 {
		t.Fatalf("IDSet = %v, want [1 3 5]", s)
	}
	if !s.Contains(3) || s.Contains(2) {
		t.Error("Contains misreports membership")
	}
	u := s.Clone()
	u.Union(IDSet{0, 3, 9})
	if len(u) != 5 || u[0] != 0 || u[4] != 9 {
		t.Errorf("Union = %v, want [0 1 3 5 9]", u)
	}
	if !s.Equal(IDSet{1, 3, 5}) || s.Equal(u) {
		t.Error("Equal misreports")
	}
}

// TestJaccardIDsMatchesStringJaccard is the satellite property test: the
// ID-slice Jaccard must agree exactly with the string-set Jaccard on random
// sets interned through a shared table.
func TestJaccardIDsMatchesStringJaccard(t *testing.T) {
	universe := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := NewSymtab()
		// Pre-intern in random order so IDs are not alphabetical.
		for _, i := range rng.Perm(len(universe)) {
			tab.Intern(universe[i])
		}
		build := func() (StringSet, IDSet) {
			ss := NewStringSet()
			var ids IDSet
			for _, s := range universe {
				if rng.Intn(2) == 0 {
					ss.Add(s)
					ids.Insert(tab.Intern(s))
				}
			}
			return ss, ids
		}
		sa, ia := build()
		sb, ib := build()
		return Jaccard(sa, sb) == JaccardIDs(ia, ib)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestJaccardU64MatchesJaccardIDs pins the uint64 merge-key variant to the
// uint32 one on random sets.
func TestJaccardU64MatchesJaccardIDs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		build := func() (IDSet, []uint64) {
			var ids IDSet
			for v := uint32(0); v < 20; v++ {
				if rng.Intn(2) == 0 {
					ids.Insert(v)
				}
			}
			u := make([]uint64, len(ids))
			for i, id := range ids {
				u[i] = uint64(id)
			}
			return ids, u
		}
		a32, a64 := build()
		b32, b64 := build()
		return JaccardIDs(a32, b32) == JaccardU64(a64, b64)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCounterTableAccumulates(t *testing.T) {
	var c CounterTable
	c.Inc(7)
	c.Inc(3)
	c.Inc(7)
	if c.Distinct() != 2 || c.Max() != 2 {
		t.Errorf("Distinct=%d Max=%d, want 2,2", c.Distinct(), c.Max())
	}
	var d CounterTable
	d.Inc(7)
	d.Inc(1)
	c.Merge(&d)
	if c.Distinct() != 3 || c.Max() != 3 {
		t.Errorf("after merge Distinct=%d Max=%d, want 3,3", c.Distinct(), c.Max())
	}
}
