package schema

import (
	"bytes"
	"reflect"
	"testing"

	"pghive/internal/pg"
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
