package infer

import (
	"fmt"
	"testing"

	"pghive/internal/pg"
	"pghive/internal/schema"
)

func nodeType(n int, props func(i int) pg.Properties) *schema.Type {
	t := schema.NewType(schema.NewSymtab(), schema.NodeKind)
	for i := 0; i < n; i++ {
		t.ObserveNode(&pg.NodeRecord{ID: pg.ID(i), Labels: []string{"T"}, Props: props(i)}, false)
	}
	return t
}

func TestKeyConstraintDiscovered(t *testing.T) {
	ty := nodeType(50, func(i int) pg.Properties {
		return pg.Properties{
			"id":   pg.Str(fmt.Sprintf("id-%d", i)), // unique, mandatory → KEY
			"name": pg.Str("same"),                  // mandatory, duplicated
		}
	})
	id := PropertyDef("id", ty.Prop("id"), ty.Instances, Options{})
	if !id.Unique {
		t.Error("id should be a key candidate")
	}
	name := PropertyDef("name", ty.Prop("name"), ty.Instances, Options{})
	if name.Unique {
		t.Error("duplicated name must not be a key")
	}
}

func TestKeyRequiresMandatory(t *testing.T) {
	// Unique values but present on half the instances: not a key.
	ty := nodeType(50, func(i int) pg.Properties {
		p := pg.Properties{"name": pg.Str("x")}
		if i%2 == 0 {
			p["code"] = pg.Str(fmt.Sprintf("c%d", i))
		}
		return p
	})
	code := PropertyDef("code", ty.Prop("code"), ty.Instances, Options{})
	if code.Unique {
		t.Error("optional property must not be a key")
	}
}

func TestKeyRequiresSupport(t *testing.T) {
	ty := nodeType(1, func(i int) pg.Properties {
		return pg.Properties{"id": pg.Str("only")}
	})
	id := PropertyDef("id", ty.Prop("id"), ty.Instances, Options{})
	if id.Unique {
		t.Error("a single instance cannot certify a key")
	}
}

func TestEnumDiscovered(t *testing.T) {
	ty := nodeType(60, func(i int) pg.Properties {
		return pg.Properties{"status": pg.Str([]string{"open", "closed"}[i%2])}
	})
	status := PropertyDef("status", ty.Prop("status"), ty.Instances, Options{})
	if len(status.Enum) != 2 || status.Enum[0] != "closed" || status.Enum[1] != "open" {
		t.Errorf("Enum = %v, want [closed open]", status.Enum)
	}
}

func TestEnumRequiresSupport(t *testing.T) {
	// Below enumMinSupport observations nothing is reported.
	ty := nodeType(5, func(i int) pg.Properties {
		return pg.Properties{"status": pg.Str("open")}
	})
	status := PropertyDef("status", ty.Prop("status"), ty.Instances, Options{})
	if status.Enum != nil {
		t.Errorf("Enum = %v on %d observations, want nil", status.Enum, 5)
	}
}

func TestRangeDiscovered(t *testing.T) {
	ty := nodeType(30, func(i int) pg.Properties {
		return pg.Properties{"age": pg.Int(int64(10 + i))}
	})
	age := PropertyDef("age", ty.Prop("age"), ty.Instances, Options{})
	if !age.HasRange || age.MinNum != 10 || age.MaxNum != 39 {
		t.Errorf("age range = %+v, want [10, 39]", age)
	}
}

func TestRangeOnlyForNumericTypes(t *testing.T) {
	// A property generalized to STRING gets no range even if some values
	// were numeric.
	ty := nodeType(30, func(i int) pg.Properties {
		if i%2 == 0 {
			return pg.Properties{"mixed": pg.Int(int64(i))}
		}
		return pg.Properties{"mixed": pg.Str("zzz")}
	})
	mixed := PropertyDef("mixed", ty.Prop("mixed"), ty.Instances, Options{})
	if mixed.HasRange {
		t.Error("STRING-typed property must not carry a numeric range")
	}
}

func buildParticipationSchema(participating int) *schema.Schema {
	s := schema.NewSchema()
	person := s.NewType(schema.NodeKind)
	for i := 0; i < 10; i++ {
		person.ObserveNode(&pg.NodeRecord{ID: pg.ID(i), Labels: []string{"Person"}}, false)
	}
	s.Add(person)
	org := s.NewType(schema.NodeKind)
	org.ObserveNode(&pg.NodeRecord{ID: 100, Labels: []string{"Org"}}, false)
	s.Add(org)

	worksAt := s.NewType(schema.EdgeKind)
	for i := 0; i < participating; i++ {
		worksAt.ObserveEdge(&pg.EdgeRecord{ID: pg.ID(i), Labels: []string{"WORKS_AT"},
			Src: pg.ID(i), Dst: 100,
			SrcLabels: []string{"Person"}, DstLabels: []string{"Org"}}, false)
	}
	s.Add(worksAt)
	return s
}

func TestParticipationTotal(t *testing.T) {
	// All 10 Person instances carry a WORKS_AT edge → lower bound 1.
	def := Finalize(buildParticipationSchema(10), Options{Participation: true})
	e := def.EdgeType("WORKS_AT")
	if !e.SrcTotal {
		t.Error("SrcTotal should hold when every Person participates")
	}
	if !e.DstTotal {
		t.Error("DstTotal should hold when the only Org participates")
	}
	if got := e.CardinalityString(); got != "1:N" {
		t.Errorf("CardinalityString = %q, want 1:N", got)
	}
}

func TestParticipationPartial(t *testing.T) {
	def := Finalize(buildParticipationSchema(7), Options{Participation: true})
	e := def.EdgeType("WORKS_AT")
	if e.SrcTotal {
		t.Error("SrcTotal must not hold with 7 of 10 participating")
	}
	if got := e.CardinalityString(); got != "0:N" {
		t.Errorf("CardinalityString = %q, want 0:N", got)
	}
}

func TestParticipationDisabledByDefault(t *testing.T) {
	def := Finalize(buildParticipationSchema(10), Options{})
	e := def.EdgeType("WORKS_AT")
	if e.SrcTotal || e.DstTotal {
		t.Error("participation analysis must be opt-in")
	}
}

func TestParticipationRejectsForeignSources(t *testing.T) {
	// Edges from nodes outside the resolved source types must not fake a
	// total-participation upgrade.
	s := buildParticipationSchema(10)
	// Add an extra source outside the Person type: an 11th distinct source
	// appears in the degree evidence but not in any resolved type.
	worksAt := s.EdgeTypes[0]
	worksAt.ObserveEdge(&pg.EdgeRecord{ID: 99, Labels: []string{"WORKS_AT"},
		Src: 999, Dst: 100,
		SrcLabels: []string{"Person"}, DstLabels: []string{"Org"}}, false)
	def := Finalize(s, Options{Participation: true})
	e := def.EdgeType("WORKS_AT")
	if e.SrcTotal {
		t.Error("11 participants over 10 Person instances must not count as total participation")
	}
}
