package infer

import (
	"math"
	"testing"

	"pghive/internal/pg"
	"pghive/internal/schema"
)

// observeSampled records v and counts it in the data-type sample.
func observeSampled(p *schema.PropStat, v pg.Value) {
	p.Observe(v)
	p.SampleKinds[v.Kind()]++
}

func kinds(pairs ...interface{}) map[pg.Kind]int {
	m := map[pg.Kind]int{}
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(pg.Kind)] = pairs[i+1].(int)
	}
	return m
}

func TestGeneralizeKinds(t *testing.T) {
	tests := []struct {
		name string
		in   map[pg.Kind]int
		want pg.Kind
	}{
		{"empty", kinds(), pg.KindString},
		{"only null", kinds(pg.KindNull, 3), pg.KindString},
		{"pure int", kinds(pg.KindInt, 10), pg.KindInt},
		{"pure float", kinds(pg.KindFloat, 10), pg.KindFloat},
		{"int+float", kinds(pg.KindInt, 5, pg.KindFloat, 5), pg.KindFloat},
		{"pure bool", kinds(pg.KindBool, 4), pg.KindBool},
		{"pure date", kinds(pg.KindDate, 4), pg.KindDate},
		{"pure timestamp", kinds(pg.KindTimestamp, 4), pg.KindTimestamp},
		{"date+timestamp", kinds(pg.KindDate, 2, pg.KindTimestamp, 2), pg.KindTimestamp},
		{"any string", kinds(pg.KindInt, 99, pg.KindString, 1), pg.KindString},
		{"bool+int", kinds(pg.KindBool, 1, pg.KindInt, 1), pg.KindString},
		{"date+int", kinds(pg.KindDate, 1, pg.KindInt, 1), pg.KindString},
	}
	for _, tc := range tests {
		if got := GeneralizeKinds(tc.in); got != tc.want {
			t.Errorf("%s: GeneralizeKinds = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPropertyDefMandatoryOptional(t *testing.T) {
	// Example 6 of the paper: a property in every instance is mandatory,
	// a property in some instances is optional.
	stat := schema.NewPropStat()
	for i := 0; i < 10; i++ {
		stat.Observe(pg.Str("x"))
	}
	d := PropertyDef("name", stat, 10, Options{})
	if !d.Mandatory || d.Frequency != 1 {
		t.Errorf("full-coverage property: %+v, want mandatory f=1", d)
	}
	d = PropertyDef("name", stat, 20, Options{})
	if d.Mandatory || d.Frequency != 0.5 {
		t.Errorf("half-coverage property: %+v, want optional f=0.5", d)
	}
}

func TestPropertyDefZeroInstances(t *testing.T) {
	d := PropertyDef("x", schema.NewPropStat(), 0, Options{})
	if d.Mandatory || d.Frequency != 0 {
		t.Errorf("zero-instance type property: %+v", d)
	}
	if d.DataType != pg.KindString {
		t.Errorf("DataType = %v, want STRING default", d.DataType)
	}
}

func TestPropertyDefSampleBasedFallback(t *testing.T) {
	// A property never sampled falls back to STRING under sample-based
	// inference (the paper's fallback), even if the full scan saw ints.
	stat := schema.NewPropStat()
	stat.Observe(pg.Int(7))
	d := PropertyDef("n", stat, 1, Options{SampleBased: true})
	if d.DataType != pg.KindString {
		t.Errorf("unsampled DataType = %v, want STRING", d.DataType)
	}
	d = PropertyDef("n", stat, 1, Options{})
	if d.DataType != pg.KindInt {
		t.Errorf("full-scan DataType = %v, want INT", d.DataType)
	}
}

func TestSamplingError(t *testing.T) {
	// Full scan: 90 ints + 10 floats → DOUBLE. Sample: 8 ints, 2 floats →
	// 8/10 sampled values disagree with DOUBLE.
	stat := schema.NewPropStat()
	for i := 0; i < 82; i++ {
		stat.Observe(pg.Int(int64(i)))
	}
	for i := 0; i < 8; i++ {
		observeSampled(stat, pg.Int(int64(100+i)))
	}
	for i := 0; i < 8; i++ {
		stat.Observe(pg.Float(float64(i) + 0.5))
	}
	for i := 0; i < 2; i++ {
		observeSampled(stat, pg.Float(float64(i)+99.5))
	}
	if got := SamplingError(stat); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("SamplingError = %v, want 0.8", got)
	}
}

func TestSamplingErrorHomogeneous(t *testing.T) {
	stat := schema.NewPropStat()
	for i := 0; i < 50; i++ {
		if i%10 == 0 {
			observeSampled(stat, pg.Int(int64(i)))
		} else {
			stat.Observe(pg.Int(int64(i)))
		}
	}
	if got := SamplingError(stat); got != 0 {
		t.Errorf("homogeneous SamplingError = %v, want 0", got)
	}
}

func TestSamplingErrorNoSample(t *testing.T) {
	stat := schema.NewPropStat()
	stat.Observe(pg.Int(1))
	if got := SamplingError(stat); got != 0 {
		t.Errorf("no-sample SamplingError = %v, want 0", got)
	}
}

func buildExampleSchema() *schema.Schema {
	s := schema.NewSchema()
	person := s.NewType(schema.NodeKind)
	for i := 0; i < 3; i++ {
		person.ObserveNode(&pg.NodeRecord{ID: pg.ID(i), Labels: []string{"Person"},
			Props: pg.Properties{"name": pg.Str("x"), "bday": pg.Date(pg.ParseValue("1999-12-19").AsTime())}}, false)
	}
	person.ObserveNode(&pg.NodeRecord{ID: 3, Labels: []string{"Person"},
		Props: pg.Properties{"name": pg.Str("y")}}, false)
	s.Add(person)

	org := s.NewType(schema.NodeKind)
	org.ObserveNode(&pg.NodeRecord{ID: 4, Labels: []string{"Organization"},
		Props: pg.Properties{"name": pg.Str("o"), "url": pg.Str("u")}}, false)
	s.Add(org)

	abstract := s.NewType(schema.NodeKind)
	abstract.Abstract = true
	abstract.ObserveNode(&pg.NodeRecord{ID: 5, Props: pg.Properties{"blob": pg.Str("?")}}, false)
	s.Add(abstract)

	worksAt := s.NewType(schema.EdgeKind)
	worksAt.ObserveEdge(&pg.EdgeRecord{ID: 0, Labels: []string{"WORKS_AT"}, Src: 0, Dst: 4,
		SrcLabels: []string{"Person"}, DstLabels: []string{"Organization"},
		Props: pg.Properties{"from": pg.Int(2020)}}, false)
	worksAt.ObserveEdge(&pg.EdgeRecord{ID: 1, Labels: []string{"WORKS_AT"}, Src: 1, Dst: 4,
		SrcLabels: []string{"Person"}, DstLabels: []string{"Organization"}}, false)
	s.Add(worksAt)
	return s
}

func TestFinalizeExample(t *testing.T) {
	def := Finalize(buildExampleSchema(), Options{})
	if len(def.Nodes) != 3 || len(def.Edges) != 1 {
		t.Fatalf("def sizes = (%d,%d), want (3,1)", len(def.Nodes), len(def.Edges))
	}

	person := def.NodeType("Person")
	if person == nil {
		t.Fatal("Person type missing")
	}
	name := schema.Property(person.Properties, "name")
	if name == nil || !name.Mandatory || name.DataType != pg.KindString {
		t.Errorf("name = %+v, want mandatory STRING", name)
	}
	bday := schema.Property(person.Properties, "bday")
	if bday == nil || bday.Mandatory || bday.DataType != pg.KindDate {
		t.Errorf("bday = %+v, want optional DATE", bday)
	}

	abstract := def.Nodes[2]
	if !abstract.Abstract || abstract.Name != "Abstract0" {
		t.Errorf("abstract node = %+v, want Abstract0", abstract)
	}

	worksAt := def.EdgeType("WORKS_AT")
	if worksAt == nil {
		t.Fatal("WORKS_AT missing")
	}
	// Example 8: a person works at exactly one org; an org has several
	// employees → N:1... here max_out=1, max_in=2 → 0:N per the paper's
	// literal mapping of (1, >1).
	if worksAt.Cardinality != schema.CardZeroN {
		t.Errorf("cardinality = %v, want 0:N (max_out=1, max_in=2)", worksAt.Cardinality)
	}
	if len(worksAt.SrcTypes) != 1 || worksAt.SrcTypes[0] != "Person" {
		t.Errorf("SrcTypes = %v, want [Person]", worksAt.SrcTypes)
	}
	if len(worksAt.DstTypes) != 1 || worksAt.DstTypes[0] != "Organization" {
		t.Errorf("DstTypes = %v, want [Organization]", worksAt.DstTypes)
	}
	from := schema.Property(worksAt.Properties, "from")
	if from == nil || from.Mandatory || from.DataType != pg.KindInt {
		t.Errorf("from = %+v, want optional INT", from)
	}
}

func TestFinalizePropertiesSorted(t *testing.T) {
	def := Finalize(buildExampleSchema(), Options{})
	person := def.NodeType("Person")
	for i := 1; i < len(person.Properties); i++ {
		if person.Properties[i-1].Key >= person.Properties[i].Key {
			t.Errorf("properties not sorted: %v", person.Properties)
		}
	}
}

func TestResolveEndpointsUnlabeledGoesAbstract(t *testing.T) {
	nodes := []schema.NodeTypeDef{
		{Name: "Person", Labels: []string{"Person"}},
		{Name: "Abstract0", Abstract: true},
	}
	got := resolveEndpoints(nodes, schema.StringSet{})
	if len(got) != 1 || got[0] != "Abstract0" {
		t.Errorf("unlabeled endpoint resolved to %v, want [Abstract0]", got)
	}
}

func TestResolveEndpointsIntersection(t *testing.T) {
	nodes := []schema.NodeTypeDef{
		{Name: "Person&Student", Labels: []string{"Person", "Student"}},
		{Name: "Org", Labels: []string{"Org"}},
	}
	got := resolveEndpoints(nodes, schema.NewStringSet("Student"))
	if len(got) != 1 || got[0] != "Person&Student" {
		t.Errorf("resolved to %v, want [Person&Student]", got)
	}
}

func TestFinalizeMultipleAbstractNamesDistinct(t *testing.T) {
	s := schema.NewSchema()
	for i := 0; i < 3; i++ {
		ty := s.NewType(schema.NodeKind)
		ty.Abstract = true
		ty.ObserveNode(&pg.NodeRecord{ID: pg.ID(i), Props: pg.Properties{"k": pg.Int(1)}}, false)
		s.Add(ty)
	}
	def := Finalize(s, Options{})
	seen := map[string]bool{}
	for _, n := range def.Nodes {
		if seen[n.Name] {
			t.Errorf("duplicate abstract name %q", n.Name)
		}
		seen[n.Name] = true
	}
}
