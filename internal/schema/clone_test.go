package schema

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pghive/internal/pg"
)

// cloneSchemas builds an exact and a sketched schema that between them
// carry every state Clone must copy as the codec would: pending exact
// degree increments, pending sketched degree observations, a spilled
// sample, an exact window, duplicate-marked stats, an enum dropped by its
// byte cap, members and an abstract type.
func cloneSchemas(seed int64) map[string]*Schema {
	exact := checkpointSchema() // AddOutDeg leaves exact increments pending
	blob := NewPropStat()
	for i := 0; i < 40; i++ {
		blob.Observe(pg.Str(fmt.Sprintf("%03d%s", i, strings.Repeat("x", 400))))
	}
	exact.NodeTypes[1].SetProp("blob", blob)

	pol := PolicyForBudget(64 << 20)
	pol.DupFrontCap = 8
	sketched := NewSchema()
	sketched.SetEvidencePolicy(pol)
	knows := NewType(sketched.Tab, EdgeKind)
	for i, e := range genSketchEdges(seed, 300) {
		e.Props["blob"] = pg.Str(fmt.Sprintf("%03d%s", i, strings.Repeat("y", 400)))
		if i < 5 {
			e.Props["rare"] = pg.Int(int64(i))
		}
		knows.ObserveEdge(&e, true)
	}
	sketched.Add(knows)
	person := NewType(sketched.Tab, NodeKind)
	person.ObserveNode(&pg.NodeRecord{ID: 9, Props: pg.Properties{"name": pg.Str("ada")}}, true)
	person.Abstract = true
	sketched.Add(person)

	return map[string]*Schema{"exact": exact, "sketched": sketched}
}

// TestSchemaCloneMatchesCodec: a clone encodes exactly like the codec's
// round trip of the original, and is independent of it — merging another
// schema into the clone, or folding the clone into another schema, leaves
// the original's encoding unchanged.
func TestSchemaCloneMatchesCodec(t *testing.T) {
	for name, s := range cloneSchemas(3) {
		pol := s.Tab.Evidence()
		if name == "sketched" {
			vs := s.EdgeTypes[0]
			if v := vs.Prop("uid").Values; !v.frontOver || len(v.sample) != pol.DupFrontCap {
				t.Fatalf("sketched: uid sample not spilled (spilled=%t, %d entries)", v.frontOver, len(v.sample))
			}
			if v := vs.Prop("rare").Values; v.frontOver || v.dup {
				t.Fatal("sketched: rare left its exact window")
			}
			if !vs.Prop("flag").Values.dup || !vs.Prop("blob").Values.enumOver {
				t.Fatal("sketched: flag not duplicate-marked or blob enum not dropped")
			}
			if len(vs.outDeg.pending) == 0 {
				t.Fatal("sketched: no pending degree observations")
			}
		} else if len(s.EdgeTypes[0].outDeg.pending) == 0 || !s.NodeTypes[1].Prop("blob").Values.enumOver {
			t.Fatal("exact: no pending degree increments or blob enum not dropped")
		}

		clone := s.Clone() // before any encode: Clone must settle s itself
		if clone.Tab.Evidence() != nil {
			t.Fatalf("%s: clone carries an evidence policy", name)
		}
		if shared := sharedRefs(reflect.ValueOf(s), reflect.ValueOf(clone), "Schema"); len(shared) > 0 {
			t.Fatalf("%s: clone shares mutable state with the original: %v", name, shared)
		}
		want := encodeSchema(t, s)
		decoded, err := ReadSchema(pg.NewWireReader(bytes.NewReader(want)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := encodeSchema(t, clone); !bytes.Equal(got, want) {
			t.Fatalf("%s: clone encodes to %d bytes, the codec round trip to %d", name, len(got), len(want))
		}
		if got := encodeSchema(t, decoded); !bytes.Equal(got, want) {
			t.Fatalf("%s: codec round trip not stable", name)
		}

		// Evolve the clone every way a fold does; the original must not see it.
		clone.SetEvidencePolicy(pol)
		other := cloneSchemas(4)[name]
		MergeSchemas(clone, other, 0.5)
		for _, t2 := range clone.EdgeTypes {
			t2.ObserveEdge(&pg.EdgeRecord{
				ID: 1 << 40, Labels: []string{"KNOWS", "NEW"}, Src: 77, Dst: 78,
				SrcLabels: []string{"Robot"}, Props: pg.Properties{"uid": pg.Str("fresh"), "since": pg.Int(7)},
			}, true)
		}
		into := NewSchema()
		into.SetEvidencePolicy(pol)
		MergeSchemas(into, s.Clone(), 0.5)
		MergeSchemas(into, clone, 0.5)
		if got := encodeSchema(t, s); !bytes.Equal(got, want) {
			t.Fatalf("%s: evolving clones changed the original's encoding", name)
		}
	}
}

// sharedRefs walks a and b, values of one type, in parallel and returns the
// paths of every pointer, map or slice backing array they share. Strings
// are immutable and may be shared.
func sharedRefs(a, b reflect.Value, path string) []string {
	var out []string
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return nil
		}
		if a.Pointer() == b.Pointer() {
			return []string{path}
		}
		return sharedRefs(a.Elem(), b.Elem(), path)
	case reflect.Map:
		if a.IsNil() || b.IsNil() {
			return nil
		}
		if a.Pointer() == b.Pointer() {
			return []string{path}
		}
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); bv.IsValid() {
				out = append(out, sharedRefs(a.MapIndex(k), bv, fmt.Sprintf("%s[%v]", path, k))...)
			}
		}
	case reflect.Slice:
		if a.Cap() > 0 && b.Cap() > 0 && a.Pointer() == b.Pointer() {
			return []string{path}
		}
		for i := 0; i < min(a.Len(), b.Len()); i++ {
			out = append(out, sharedRefs(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			out = append(out, sharedRefs(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			out = append(out, sharedRefs(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name)...)
		}
	}
	return out
}
