package schema

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pghive/internal/pg"
)

// observeSampled records v and counts it in the data-type sample.
func observeSampled(p *PropStat, v pg.Value) {
	p.Observe(v)
	p.SampleKinds[v.Kind()]++
}

func TestStringSetBasics(t *testing.T) {
	s := NewStringSet("b", "a", "b")
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	if !s.Has("a") || s.Has("c") {
		t.Error("Has misreports membership")
	}
	if s.Key() != "1:a1:b" {
		t.Errorf("Key = %q, want 1:a1:b", s.Key())
	}
	// The encoding is length-prefixed so {"a&b"} and {"a","b"} cannot
	// collide the way a plain "&"-join would.
	if NewStringSet("a&b").Key() == NewStringSet("a", "b").Key() {
		t.Error("Key conflates {a&b} with {a,b}")
	}
	c := s.Clone()
	c.Add("z")
	if s.Has("z") {
		t.Error("Clone shares storage")
	}
}

func TestJaccardSet(t *testing.T) {
	tests := []struct {
		a, b []string
		want float64
	}{
		{nil, nil, 1},
		{[]string{"x"}, nil, 0},
		{[]string{"a", "b"}, []string{"a", "b"}, 1},
		{[]string{"a", "b", "c"}, []string{"b", "c", "d"}, 0.5},
	}
	for _, tc := range tests {
		got := Jaccard(NewStringSet(tc.a...), NewStringSet(tc.b...))
		if got != tc.want {
			t.Errorf("Jaccard(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestObserveNodeAccumulates(t *testing.T) {
	ty := NewType(NewSymtab(), NodeKind)
	ty.ObserveNode(&pg.NodeRecord{ID: 1, Labels: []string{"Person"},
		Props: pg.Properties{"name": pg.Str("a"), "age": pg.Int(3)}}, true)
	ty.ObserveNode(&pg.NodeRecord{ID: 2, Labels: []string{"Person", "Student"},
		Props: pg.Properties{"name": pg.Str("b")}}, true)
	if ty.Instances != 2 {
		t.Errorf("Instances = %d, want 2", ty.Instances)
	}
	if ty.LabelKey() != "Person&Student" {
		t.Errorf("LabelKey = %q, want Person&Student", ty.LabelKey())
	}
	if ty.Prop("name").Count != 2 || ty.Prop("age").Count != 1 {
		t.Errorf("prop counts = %d,%d, want 2,1", ty.Prop("name").Count, ty.Prop("age").Count)
	}
	if ty.Prop("age").Kinds[pg.KindInt] != 1 {
		t.Error("age INT kind not recorded")
	}
	if len(ty.Members) != 2 {
		t.Errorf("Members = %v, want 2 entries", ty.Members)
	}
}

func TestObserveEdgeAccumulates(t *testing.T) {
	ty := NewType(NewSymtab(), EdgeKind)
	ty.ObserveEdge(&pg.EdgeRecord{ID: 1, Labels: []string{"KNOWS"}, Src: 10, Dst: 20,
		SrcLabels: []string{"Person"}, DstLabels: []string{"Person"},
		Props: pg.Properties{"since": pg.Int(2017)}}, false)
	ty.ObserveEdge(&pg.EdgeRecord{ID: 2, Labels: []string{"KNOWS"}, Src: 10, Dst: 30,
		SrcLabels: []string{"Person"}, DstLabels: []string{"Admin"}}, false)
	if !ty.SrcLabels().Has("Person") || !ty.DstLabels().Has("Admin") {
		t.Error("endpoint labels not unioned")
	}
	d := ty.MaxDegrees()
	if d.MaxOut != 2 || d.MaxIn != 1 {
		t.Errorf("degrees = %+v, want MaxOut=2 MaxIn=1", d)
	}
	if len(ty.Members) != 0 {
		t.Error("members recorded despite trackMembers=false")
	}
}

func TestObserveKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewType(NewSymtab(), EdgeKind).ObserveNode(&pg.NodeRecord{}, false)
}

func TestMergeMonotonicityLemma1(t *testing.T) {
	// Lemma 1: K_i ⊆ K_M and L_i ⊆ L_M — merging never loses node labels
	// or property keys.
	tab := NewSymtab()
	a := NewType(tab, NodeKind)
	a.ObserveNode(&pg.NodeRecord{Labels: []string{"Person"}, Props: pg.Properties{"name": pg.Str("x")}}, false)
	b := NewType(tab, NodeKind)
	b.ObserveNode(&pg.NodeRecord{Labels: []string{"Student"}, Props: pg.Properties{"gpa": pg.Float(4)}}, false)
	a.Merge(b)
	for _, l := range []string{"Person", "Student"} {
		if !a.HasLabel(l) {
			t.Errorf("label %q lost in merge", l)
		}
	}
	for _, k := range []string{"name", "gpa"} {
		if a.Prop(k) == nil {
			t.Errorf("property %q lost in merge", k)
		}
	}
	if a.Instances != 2 {
		t.Errorf("Instances = %d, want 2", a.Instances)
	}
}

func TestMergeMonotonicityLemma2(t *testing.T) {
	// Lemma 2: endpoints union too.
	tab := NewSymtab()
	a := NewType(tab, EdgeKind)
	a.ObserveEdge(&pg.EdgeRecord{Labels: []string{"LIKES"}, Src: 1, Dst: 2,
		SrcLabels: []string{"Person"}, DstLabels: []string{"Post"}}, false)
	b := NewType(tab, EdgeKind)
	b.ObserveEdge(&pg.EdgeRecord{Labels: []string{"LIKES"}, Src: 3, Dst: 4,
		SrcLabels: []string{"Bot"}, DstLabels: []string{"Comment"}}, false)
	a.Merge(b)
	if !a.SrcLabels().Has("Person") || !a.SrcLabels().Has("Bot") {
		t.Error("source labels lost")
	}
	if !a.DstLabels().Has("Post") || !a.DstLabels().Has("Comment") {
		t.Error("target labels lost")
	}
}

func TestMergeKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	tab := NewSymtab()
	NewType(tab, NodeKind).Merge(NewType(tab, EdgeKind))
}

func TestMergeRescuesAbstract(t *testing.T) {
	tab := NewSymtab()
	a := NewType(tab, NodeKind)
	a.Abstract = true
	a.ObserveNode(&pg.NodeRecord{Props: pg.Properties{"x": pg.Int(1)}}, false)
	b := NewType(tab, NodeKind)
	b.ObserveNode(&pg.NodeRecord{Labels: []string{"T"}}, false)
	a.Merge(b)
	if a.Abstract {
		t.Error("merge with labeled type should clear Abstract")
	}
}

func TestMergeDegreeEvidenceSums(t *testing.T) {
	// The same source node observed in two batches must sum its out-degree.
	tab := NewSymtab()
	a := NewType(tab, EdgeKind)
	a.ObserveEdge(&pg.EdgeRecord{Labels: []string{"R"}, Src: 1, Dst: 2}, false)
	b := NewType(tab, EdgeKind)
	b.ObserveEdge(&pg.EdgeRecord{Labels: []string{"R"}, Src: 1, Dst: 3}, false)
	a.Merge(b)
	if a.MaxDegrees().MaxOut != 2 {
		t.Errorf("MaxOut = %d, want 2 after cross-batch merge", a.MaxDegrees().MaxOut)
	}
}

func TestPropStatSampling(t *testing.T) {
	p := NewPropStat()
	observeSampled(p, pg.Int(1))
	p.Observe(pg.Int(2))
	observeSampled(p, pg.Float(1.5))
	if p.Count != 3 {
		t.Errorf("Count = %d, want 3", p.Count)
	}
	if p.SampleSize() != 2 {
		t.Errorf("SampleSize = %d, want 2", p.SampleSize())
	}
	if p.Kinds[pg.KindInt] != 2 || p.SampleKinds[pg.KindInt] != 1 {
		t.Error("kind counters wrong")
	}
}

func TestSchemaFindAndCovers(t *testing.T) {
	s := NewSchema()
	ty := s.NewType(NodeKind)
	ty.ObserveNode(&pg.NodeRecord{Labels: []string{"Person"},
		Props: pg.Properties{"name": pg.Str("x"), "age": pg.Int(1)}}, false)
	s.Add(ty)
	if s.FindByLabelKey(NodeKind, "Person") != ty {
		t.Error("FindByLabelKey failed")
	}
	if s.FindByLabelKey(NodeKind, "Ghost") != nil {
		t.Error("FindByLabelKey should return nil for unknown key")
	}
	if !s.Covers(NodeKind, []string{"Person"}, []string{"name", "age"}) {
		t.Error("Covers should hold for observed labels+props")
	}
	if s.Covers(NodeKind, []string{"Person"}, []string{"salary"}) {
		t.Error("Covers must fail for unseen property")
	}
	if s.Covers(EdgeKind, nil, nil) {
		t.Error("no edge types: Covers(EdgeKind) with empty requirements should be false")
	}
}

func TestSchemaAllAccessors(t *testing.T) {
	s := NewSchema()
	n := s.NewType(NodeKind)
	n.ObserveNode(&pg.NodeRecord{Labels: []string{"A"}, Props: pg.Properties{"p": pg.Int(1)}}, false)
	e := s.NewType(EdgeKind)
	e.ObserveEdge(&pg.EdgeRecord{Labels: []string{"R"}, Props: pg.Properties{"q": pg.Int(1)}}, false)
	s.Add(n)
	s.Add(e)
	if !s.AllLabels(NodeKind).Has("A") || !s.AllLabels(EdgeKind).Has("R") {
		t.Error("AllLabels missing entries")
	}
	if !s.AllPropertyKeys(NodeKind).Has("p") || !s.AllPropertyKeys(EdgeKind).Has("q") {
		t.Error("AllPropertyKeys missing entries")
	}
	if len(s.Types(NodeKind)) != 1 || len(s.Types(EdgeKind)) != 1 {
		t.Error("Types split wrong")
	}
}

func TestMergeMonotoneQuick(t *testing.T) {
	// Property-based Lemma 1: for random pairs of node types, every label
	// and key of both inputs survives the merge.
	labels := []string{"A", "B", "C", "D"}
	keys := []string{"k1", "k2", "k3", "k4", "k5"}
	build := func(rng *rand.Rand, tab *Symtab) *Type {
		ty := NewType(tab, NodeKind)
		n := rng.Intn(4) + 1
		for i := 0; i < n; i++ {
			rec := &pg.NodeRecord{Props: pg.Properties{}}
			if rng.Intn(3) > 0 {
				rec.Labels = []string{labels[rng.Intn(len(labels))]}
			}
			for _, k := range keys {
				if rng.Intn(2) == 0 {
					rec.Props[k] = pg.Int(int64(rng.Intn(10)))
				}
			}
			ty.ObserveNode(rec, false)
		}
		return ty
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := NewSymtab()
		a, b := build(rng, tab), build(rng, tab)
		wantLabels := a.Labels()
		wantLabels.AddAll(b.Labels())
		wantKeys := a.PropKeySet()
		wantKeys.AddAll(b.PropKeySet())
		wantInstances := a.Instances + b.Instances
		a.Merge(b)
		for l := range wantLabels {
			if !a.HasLabel(l) {
				return false
			}
		}
		for k := range wantKeys {
			if a.Prop(k) == nil {
				return false
			}
		}
		return a.Instances == wantInstances
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCardinalityFromDegrees(t *testing.T) {
	tests := []struct {
		out, in int
		want    Cardinality
	}{
		{1, 1, CardZeroOne},
		{5, 1, CardNOne},
		{1, 7, CardZeroN},
		{3, 3, CardMN},
		{0, 0, CardUnknown},
		{0, 5, CardUnknown},
	}
	for _, tc := range tests {
		got := CardinalityFromDegrees(pg.DegreePair{MaxOut: tc.out, MaxIn: tc.in})
		if got != tc.want {
			t.Errorf("Cardinality(%d,%d) = %v, want %v", tc.out, tc.in, got, tc.want)
		}
	}
}

func TestCardinalityString(t *testing.T) {
	want := map[Cardinality]string{
		CardZeroOne: "0:1", CardNOne: "N:1", CardZeroN: "0:N", CardMN: "M:N", CardUnknown: "?",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Cardinality(%d).String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestTypeName(t *testing.T) {
	labeled := NewType(NewSymtab(), NodeKind)
	labeled.AddLabel("Person")
	if TypeName(labeled, 0) != "Person" {
		t.Errorf("TypeName = %q, want Person", TypeName(labeled, 0))
	}
	abstract := NewType(NewSymtab(), NodeKind)
	if TypeName(abstract, 3) != "Abstract3" {
		t.Errorf("TypeName = %q, want Abstract3", TypeName(abstract, 3))
	}
}

func TestDefLookups(t *testing.T) {
	d := &Def{
		Nodes: []NodeTypeDef{{Name: "Person", Properties: []PropertyDef{{Key: "name"}}}},
		Edges: []EdgeTypeDef{{Name: "KNOWS"}},
	}
	if d.NodeType("Person") == nil || d.NodeType("X") != nil {
		t.Error("NodeType lookup wrong")
	}
	if d.EdgeType("KNOWS") == nil || d.EdgeType("X") != nil {
		t.Error("EdgeType lookup wrong")
	}
	if Property(d.Nodes[0].Properties, "name") == nil || Property(d.Nodes[0].Properties, "zz") != nil {
		t.Error("Property lookup wrong")
	}
}
