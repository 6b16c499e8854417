package validate_test

import (
	"strings"
	"testing"

	"pghive/internal/core"
	"pghive/internal/pg"
	"pghive/internal/schema"
	"pghive/internal/serialize"
	. "pghive/internal/validate"
)

// fixtureDef builds a small schema by hand.
func fixtureDef() *schema.Def {
	return &schema.Def{
		Nodes: []schema.NodeTypeDef{
			{
				Name: "Person", Labels: []string{"Person"},
				Properties: []schema.PropertyDef{
					{Key: "id", DataType: pg.KindString, Mandatory: true, Unique: true},
					{Key: "age", DataType: pg.KindInt, Mandatory: false},
					{Key: "status", DataType: pg.KindString, Mandatory: false, Enum: []string{"active", "idle"}},
				},
				Instances: 2,
			},
			{
				Name: "Org", Labels: []string{"Org"},
				Properties: []schema.PropertyDef{{Key: "name", DataType: pg.KindString, Mandatory: true}},
				Instances:  1,
			},
		},
		Edges: []schema.EdgeTypeDef{
			{
				Name: "WORKS_AT", Labels: []string{"WORKS_AT"},
				SrcTypes: []string{"Person"}, DstTypes: []string{"Org"},
				Cardinality: schema.CardZeroN, MaxOut: 1, MaxIn: 5,
			},
		},
	}
}

func conformingGraph(t testing.TB) *pg.Graph {
	t.Helper()
	g := pg.NewGraph()
	p1 := g.AddNode([]string{"Person"}, pg.Properties{"id": pg.Str("a"), "age": pg.Int(30), "status": pg.Str("active")})
	p2 := g.AddNode([]string{"Person"}, pg.Properties{"id": pg.Str("b")})
	org := g.AddNode([]string{"Org"}, pg.Properties{"name": pg.Str("x")})
	for _, p := range []pg.ID{p1, p2} {
		if _, err := g.AddEdge([]string{"WORKS_AT"}, p, org, nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestValidateConforming(t *testing.T) {
	g := conformingGraph(t)
	for _, mode := range []serialize.Mode{serialize.Strict, serialize.Loose} {
		r := Validate(g, fixtureDef(), Options{Mode: mode})
		if !r.Valid() {
			t.Errorf("%v: unexpected violations: %v", mode, r.Violations)
		}
		if r.NodesChecked != 3 || r.EdgesChecked != 2 {
			t.Errorf("%v: checked (%d,%d), want (3,2)", mode, r.NodesChecked, r.EdgesChecked)
		}
	}
}

func TestValidateUnknownType(t *testing.T) {
	g := conformingGraph(t)
	g.AddNode([]string{"Ghost"}, nil)
	r := Validate(g, fixtureDef(), Options{Mode: serialize.Strict})
	if r.CountByKind()[UnknownType] != 1 {
		t.Errorf("violations = %v, want one unknown type", r.Violations)
	}
}

func TestValidateMissingMandatory(t *testing.T) {
	g := pg.NewGraph()
	g.AddNode([]string{"Person"}, pg.Properties{"age": pg.Int(1)}) // no id
	r := Validate(g, fixtureDef(), Options{Mode: serialize.Strict})
	if r.CountByKind()[MissingMandatory] != 1 {
		t.Errorf("violations = %v, want one missing mandatory", r.Violations)
	}
	// LOOSE tolerates it.
	r = Validate(g, fixtureDef(), Options{Mode: serialize.Loose})
	if !r.Valid() {
		t.Errorf("LOOSE should tolerate a missing property: %v", r.Violations)
	}
}

func TestValidateWrongDataType(t *testing.T) {
	g := pg.NewGraph()
	g.AddNode([]string{"Person"}, pg.Properties{"id": pg.Str("a"), "age": pg.Str("old")})
	r := Validate(g, fixtureDef(), Options{Mode: serialize.Strict})
	if r.CountByKind()[WrongDataType] != 1 {
		t.Errorf("violations = %v, want one wrong data type", r.Violations)
	}
}

func TestValidateEnumViolation(t *testing.T) {
	g := pg.NewGraph()
	g.AddNode([]string{"Person"}, pg.Properties{"id": pg.Str("a"), "status": pg.Str("zombie")})
	r := Validate(g, fixtureDef(), Options{Mode: serialize.Strict})
	if r.CountByKind()[EnumViolation] != 1 {
		t.Errorf("violations = %v, want one enum violation", r.Violations)
	}
}

func TestValidateKeyViolation(t *testing.T) {
	g := pg.NewGraph()
	g.AddNode([]string{"Person"}, pg.Properties{"id": pg.Str("same")})
	g.AddNode([]string{"Person"}, pg.Properties{"id": pg.Str("same")})
	r := Validate(g, fixtureDef(), Options{Mode: serialize.Strict})
	if r.CountByKind()[KeyViolation] != 1 {
		t.Errorf("violations = %v, want one key violation", r.Violations)
	}
}

func TestValidateUnknownProperty(t *testing.T) {
	g := pg.NewGraph()
	g.AddNode([]string{"Person"}, pg.Properties{"id": pg.Str("a"), "shoeSize": pg.Int(44)})
	r := Validate(g, fixtureDef(), Options{Mode: serialize.Strict})
	if r.CountByKind()[UnknownProperty] != 1 {
		t.Errorf("violations = %v, want one unknown property", r.Violations)
	}
	// LOOSE is open.
	if r := Validate(g, fixtureDef(), Options{Mode: serialize.Loose}); !r.Valid() {
		t.Errorf("LOOSE should tolerate extra properties: %v", r.Violations)
	}
}

func TestValidateCardinalityViolation(t *testing.T) {
	g := pg.NewGraph()
	p := g.AddNode([]string{"Person"}, pg.Properties{"id": pg.Str("a")})
	o1 := g.AddNode([]string{"Org"}, pg.Properties{"name": pg.Str("x")})
	o2 := g.AddNode([]string{"Org"}, pg.Properties{"name": pg.Str("y")})
	for _, o := range []pg.ID{o1, o2} { // MaxOut is 1
		if _, err := g.AddEdge([]string{"WORKS_AT"}, p, o, nil); err != nil {
			t.Fatal(err)
		}
	}
	r := Validate(g, fixtureDef(), Options{Mode: serialize.Strict})
	if r.CountByKind()[CardinalityViolation] != 1 {
		t.Errorf("violations = %v, want one cardinality violation", r.Violations)
	}
}

func TestValidateUnknownEndpoint(t *testing.T) {
	g := pg.NewGraph()
	o1 := g.AddNode([]string{"Org"}, pg.Properties{"name": pg.Str("x")})
	o2 := g.AddNode([]string{"Org"}, pg.Properties{"name": pg.Str("y")})
	if _, err := g.AddEdge([]string{"WORKS_AT"}, o1, o2, nil); err != nil {
		t.Fatal(err)
	}
	r := Validate(g, fixtureDef(), Options{Mode: serialize.Strict})
	if r.CountByKind()[UnknownEndpoint] == 0 {
		t.Errorf("violations = %v, want an unknown endpoint", r.Violations)
	}
}

func TestValidateMaxViolations(t *testing.T) {
	g := pg.NewGraph()
	for i := 0; i < 10; i++ {
		g.AddNode([]string{"Ghost"}, nil)
	}
	r := Validate(g, fixtureDef(), Options{Mode: serialize.Strict, MaxViolations: 3})
	if len(r.Violations) != 3 {
		t.Errorf("got %d violations, want capped at 3", len(r.Violations))
	}
}

func TestSelfValidationInvariant(t *testing.T) {
	// A schema discovered from a fully labeled graph validates that graph
	// in both modes — the end-to-end soundness property of §4.7.
	g := pg.NewGraph()
	var people []pg.ID
	for i := 0; i < 40; i++ {
		people = append(people, g.AddNode([]string{"Person"}, pg.Properties{
			"name": pg.Str("p"), "n": pg.Int(int64(i)),
		}))
	}
	org := g.AddNode([]string{"Org"}, pg.Properties{"name": pg.Str("o")})
	for _, p := range people {
		if _, err := g.AddEdge([]string{"WORKS_AT"}, p, org, nil); err != nil {
			t.Fatal(err)
		}
	}
	res := core.Discover(pg.NewSliceSource(g.Snapshot()), core.DefaultConfig())
	for _, mode := range []serialize.Mode{serialize.Strict, serialize.Loose} {
		r := Validate(g, res.Def, Options{Mode: mode})
		if !r.Valid() {
			t.Errorf("%v: self-validation failed: %v", mode, r.Violations[:min(5, len(r.Violations))])
		}
	}
}

func TestSelfValidationLooseOnNoisyGraph(t *testing.T) {
	// With unlabeled elements merged into labeled types, LOOSE
	// self-validation must still pass (covering types absorb them).
	g := pg.NewGraph()
	for i := 0; i < 30; i++ {
		labels := []string{"Person"}
		if i%3 == 0 {
			labels = nil
		}
		g.AddNode(labels, pg.Properties{"name": pg.Str("p"), "n": pg.Int(int64(i))})
	}
	res := core.Discover(pg.NewSliceSource(g.Snapshot()), core.DefaultConfig())
	r := ValidateSelf(g, res.Schema, serialize.Loose)
	if !r.Valid() {
		t.Errorf("LOOSE self-validation failed: %v", r.Violations)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Kind: KeyViolation, Element: 7, IsEdge: true, Detail: "dup"}
	if !strings.Contains(v.String(), "edge 7") || !strings.Contains(v.String(), "key violation") {
		t.Errorf("String = %q", v.String())
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
