package schema

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"pghive/internal/pg"
	"pghive/internal/sketch"
)

// checkpointSchema builds a schema with every field of the codec exercised:
// node and edge types, full prop statistics (distinct, duplicated, enum and
// numeric evidence), endpoint labels, degrees and members.
func checkpointSchema() *Schema {
	s := NewSchema()

	person := s.NewType(NodeKind)
	person.AddLabel("Person")
	person.AddLabel("Agent")
	person.Instances = 42
	name := NewPropStat()
	observeSampled(name, pg.Str("ada"))
	observeSampled(name, pg.Str("bob"))
	person.SetProp("name", name)
	age := NewPropStat()
	observeSampled(age, pg.Int(30))
	age.Observe(pg.Int(30)) // duplicate → dup flag, hashes dropped
	observeSampled(age, pg.Float(29.5))
	person.SetProp("age", age)
	person.Members = []pg.ID{3, 1, 2}
	s.Add(person)

	city := s.NewType(NodeKind)
	city.AddLabel("City")
	city.Instances = 7
	city.Abstract = true
	s.Add(city)

	knows := s.NewType(EdgeKind)
	knows.AddLabel("KNOWS")
	knows.Instances = 9
	since := NewPropStat()
	observeSampled(since, pg.Int(1999))
	knows.SetProp("since", since)
	knows.AddSrcLabel("Person")
	knows.AddDstLabel("Person")
	knows.AddDstLabel("City")
	knows.AddOutDeg(pg.ID(1), 3)
	knows.AddOutDeg(pg.ID(2), 1)
	knows.AddInDeg(pg.ID(3), 4)
	s.Add(knows)

	return s
}

func encodeSchema(t *testing.T, s *Schema) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := pg.NewWireWriter(&buf)
	if err := WriteSchema(w, s); err != nil {
		t.Fatalf("WriteSchema: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

func TestSchemaCheckpointRoundTrip(t *testing.T) {
	s := checkpointSchema()
	enc := encodeSchema(t, s)

	got, err := ReadSchema(pg.NewWireReader(bytes.NewReader(enc)))
	if err != nil {
		t.Fatalf("ReadSchema: %v", err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Errorf("round trip changed the schema:\nwrote %+v\nread  %+v", s, got)
	}

	// Determinism: encoding the decoded schema reproduces the bytes.
	if re := encodeSchema(t, got); !bytes.Equal(enc, re) {
		t.Errorf("re-encoding differs: %d vs %d bytes", len(enc), len(re))
	}
}

func TestSchemaCheckpointDeterministic(t *testing.T) {
	a := encodeSchema(t, checkpointSchema())
	b := encodeSchema(t, checkpointSchema())
	if !bytes.Equal(a, b) {
		t.Error("two encodings of equal schemas differ")
	}
}

func TestSchemaCheckpointTruncated(t *testing.T) {
	enc := encodeSchema(t, checkpointSchema())
	for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
		if _, err := ReadSchema(pg.NewWireReader(bytes.NewReader(enc[:cut]))); err == nil {
			t.Errorf("decoding %d/%d bytes succeeded, want error", cut, len(enc))
		}
	}
}

func TestValueStatRoundTripPreservesDistinctness(t *testing.T) {
	// A distinct accumulator must keep certifying uniqueness after resume:
	// the restored hash set catches a duplicate of a pre-checkpoint value.
	v := NewValueStat()
	v.Observe(pg.Str("a"))
	v.Observe(pg.Str("b"))

	var buf bytes.Buffer
	w := pg.NewWireWriter(&buf)
	v.encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := decodeValueStat(pg.NewWireReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatalf("decodeValueStat: %v", err)
	}
	if !got.AllDistinct() {
		t.Fatal("restored stat lost distinctness")
	}
	got.Observe(pg.Str("a"))
	if got.AllDistinct() {
		t.Error("restored stat failed to detect duplicate of pre-checkpoint value")
	}
}

// TestValueStatDecodeRejectsUnsortedHashes: hash sets, windows and samples
// are written strictly ascending, so a repeat or a descent means a corrupt
// checkpoint and decoding must fail — as readIDSet does for IDs — rather
// than restore a sample the merge would misread. So must a spilled sketch
// that lacks its HLL.
func TestValueStatDecodeRejectsUnsortedHashes(t *testing.T) {
	encode := func(mode byte, spilled bool, hashes []uint64, hll bool) []byte {
		var buf bytes.Buffer
		w := pg.NewWireWriter(&buf)
		w.Byte(mode)
		w.Bool(false)   // dup
		w.Bool(spilled) // exact mode: overflow
		if mode == 1 {
			w.Uvarint(uint64(len(hashes)))
		}
		writeHashes(w, hashes)
		if mode == 1 {
			w.Bool(hll)
			if hll {
				sketch.NewHLL(sketch.DefaultHLLPrecision).Write(w)
			}
		}
		w.Bool(false) // enumOver
		w.Uvarint(0)  // enum values
		w.Varint(0)   // numCount
		w.Float64(0)
		w.Float64(0)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name    string
		mode    byte
		spilled bool
		hashes  []uint64
		hll     bool
		ok      bool
	}{
		{"exact set", 0, false, []uint64{1, 2, 3}, false, true},
		{"window", 1, false, []uint64{1, 2, 3}, false, true},
		{"sample", 1, true, []uint64{1, 2, 3}, true, true},
		{"exact set descends", 0, false, []uint64{1, 3, 2}, false, false},
		{"exact set repeats", 0, false, []uint64{1, 1}, false, false},
		{"window descends", 1, false, []uint64{2, 1}, false, false},
		{"sample repeats", 1, true, []uint64{1, 3, 3}, true, false},
		{"sample descends", 1, true, []uint64{5, 4}, true, false},
		{"sample without HLL", 1, true, []uint64{1, 2}, false, false},
	} {
		_, err := decodeValueStat(pg.NewWireReader(bytes.NewReader(encode(tc.mode, tc.spilled, tc.hashes, tc.hll))))
		if (err == nil) != tc.ok {
			t.Errorf("%s: decode error %v, want ok=%t", tc.name, err, tc.ok)
		}
	}
}

// TestDegreeRowsRoundTrip: exact degree rows are keyed by the raw endpoint
// ID, so negative IDs, 0 and IDs past 2^32 all round-trip through the gap
// encoding, re-encode to the same bytes and answer the same degree facts.
func TestDegreeRowsRoundTrip(t *testing.T) {
	s := NewSchema()
	knows := s.NewType(EdgeKind)
	knows.AddLabel("KNOWS")
	eps := []pg.ID{-7, 0, 1, 1 << 40, math.MaxInt64}
	for i, ep := range eps {
		knows.AddOutDeg(ep, i+1)
		knows.AddInDeg(ep, len(eps)-i)
	}
	knows.AddOutDeg(math.MaxInt64, 2)
	s.Add(knows)

	enc := encodeSchema(t, s)
	decoded, err := ReadSchema(pg.NewWireReader(bytes.NewReader(enc)))
	if err != nil {
		t.Fatalf("ReadSchema: %v", err)
	}
	if re := encodeSchema(t, decoded); !bytes.Equal(enc, re) {
		t.Fatalf("re-encoding the decoded rows differs: %d vs %d bytes", len(enc), len(re))
	}
	got := decoded.EdgeTypes[0]
	if want := (pg.DegreePair{MaxOut: 7, MaxIn: 5}); knows.MaxDegrees() != want || got.MaxDegrees() != want {
		t.Errorf("MaxDegrees: original %+v, decoded %+v, want %+v", knows.MaxDegrees(), got.MaxDegrees(), want)
	}
	if knows.OutDistinct() != 5 || got.OutDistinct() != 5 || knows.InDistinct() != 5 || got.InDistinct() != 5 {
		t.Errorf("distinct endpoints: original %d/%d, decoded %d/%d, want 5/5",
			knows.OutDistinct(), knows.InDistinct(), got.OutDistinct(), got.InDistinct())
	}
	want := []uint64{0, 1, 1 << 40, math.MaxInt64, uint64(math.MaxUint64) - 6}
	if !reflect.DeepEqual(got.outDeg.ids, want) {
		t.Errorf("decoded out-degree keys = %v, want %v", got.outDeg.ids, want)
	}
}

// TestDegreeRowsDecodeRejects: a forged exact degree row must be an error,
// never a panic or a silently wrong count — a count of 0 would add a
// distinct endpoint, a count past 2^32−1 would wrap, and a zero or
// overflowing gap would break the ascending-key invariant.
func TestDegreeRowsDecodeRejects(t *testing.T) {
	rows := func(n uint64, fields ...uint64) []byte {
		var buf bytes.Buffer
		w := pg.NewWireWriter(&buf)
		w.Byte(0) // exact mode
		w.Uvarint(n)
		for _, f := range fields {
			w.Uvarint(f)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"two rows", rows(2, 5, 1, 2, 3), true},
		{"first key 0", rows(1, 0, 1), true},
		{"largest key and count", rows(1, math.MaxUint64, math.MaxUint32), true},
		{"count 0", rows(1, 5, 0), false},
		{"count 2^32", rows(1, 5, 1<<32), false},
		{"count 2^32+1", rows(1, 5, 1<<32+1), false},
		{"zero gap after first row", rows(2, 5, 1, 0, 1), false},
		{"gap overflows uint64", rows(2, math.MaxUint64-1, 1, 2, 1), false},
		{"truncated row", rows(2, 5, 1, 2), false},
		{"row count past bound", rows(maxDegrees + 1), false},
		{"bad mode byte", []byte{2}, false},
	} {
		_, err := readDegrees(pg.NewWireReader(bytes.NewReader(tc.data)))
		if (err == nil) != tc.ok {
			t.Errorf("%s: decode error %v, want ok=%t", tc.name, err, tc.ok)
		}
	}
}
