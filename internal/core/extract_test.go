package core

import (
	"testing"

	"pghive/internal/pg"
	"pghive/internal/schema"
)

// Candidates must share the schema's symbol table (Merge and Add reject
// foreign types), so the helpers build them from the target schema.
func nodeCandidate(s *schema.Schema, labels []string, keys ...string) *schema.Type {
	t := s.NewType(schema.NodeKind)
	props := pg.Properties{}
	for _, k := range keys {
		props[k] = pg.Int(1)
	}
	t.ObserveNode(&pg.NodeRecord{Labels: labels, Props: props}, false)
	return t
}

func edgeCandidate(s *schema.Schema, labels, src, dst []string, keys ...string) *schema.Type {
	t := s.NewType(schema.EdgeKind)
	props := pg.Properties{}
	for _, k := range keys {
		props[k] = pg.Int(1)
	}
	t.ObserveEdge(&pg.EdgeRecord{Labels: labels, SrcLabels: src, DstLabels: dst, Props: props}, false)
	return t
}

func TestExtractMergesSameLabel(t *testing.T) {
	s := schema.NewSchema()
	schema.MergeTypes(s, schema.NodeKind, []*schema.Type{
		nodeCandidate(s, []string{"Post"}, "imgFile"),
		nodeCandidate(s, []string{"Post"}, "content"),
	}, 0.9)
	if len(s.NodeTypes) != 1 {
		t.Fatalf("got %d types, want 1 (same label merges)", len(s.NodeTypes))
	}
	ty := s.NodeTypes[0]
	if ty.Prop("imgFile") == nil {
		t.Error("imgFile lost")
	}
	if ty.Prop("content") == nil {
		t.Error("content lost")
	}
}

func TestExtractDistinctLabelSetsStaySeparate(t *testing.T) {
	s := schema.NewSchema()
	schema.MergeTypes(s, schema.NodeKind, []*schema.Type{
		nodeCandidate(s, []string{"Person"}, "name"),
		nodeCandidate(s, []string{"Person", "Student"}, "name"),
	}, 0.9)
	if len(s.NodeTypes) != 2 {
		t.Fatalf("got %d types, want 2 ({Person} vs {Person,Student})", len(s.NodeTypes))
	}
}

func TestExtractUnlabeledMergesIntoLabeled(t *testing.T) {
	// The paper's Example 5: Alice's unlabeled cluster has the same
	// property set as Person and merges into it.
	s := schema.NewSchema()
	schema.MergeTypes(s, schema.NodeKind, []*schema.Type{
		nodeCandidate(s, []string{"Person"}, "name", "gender", "bday"),
		nodeCandidate(s, nil, "name", "gender", "bday"),
	}, 0.9)
	if len(s.NodeTypes) != 1 {
		t.Fatalf("got %d types, want 1", len(s.NodeTypes))
	}
	if s.NodeTypes[0].Instances != 2 {
		t.Errorf("Instances = %d, want 2", s.NodeTypes[0].Instances)
	}
	if s.NodeTypes[0].Abstract {
		t.Error("merged type must not be abstract")
	}
}

func TestExtractUnlabeledBelowThetaStaysAbstract(t *testing.T) {
	s := schema.NewSchema()
	schema.MergeTypes(s, schema.NodeKind, []*schema.Type{
		nodeCandidate(s, []string{"Person"}, "name", "gender", "bday"),
		nodeCandidate(s, nil, "name"), // Jaccard 1/3 < 0.9
	}, 0.9)
	if len(s.NodeTypes) != 2 {
		t.Fatalf("got %d types, want 2", len(s.NodeTypes))
	}
	if !s.NodeTypes[1].Abstract {
		t.Error("unmatched unlabeled cluster should be ABSTRACT")
	}
}

func TestExtractUnlabeledPicksBestMatch(t *testing.T) {
	// Candidate {a,b,c,d,e} matches {a,b,c,d,e} (J=1) better than
	// {a,b,c,d,e,f} (J=5/6 < 0.9): only one qualifies, and no transitive
	// fusion of the two labeled types may happen.
	s := schema.NewSchema()
	schema.MergeTypes(s, schema.NodeKind, []*schema.Type{
		nodeCandidate(s, []string{"A"}, "a", "b", "c", "d", "e"),
		nodeCandidate(s, []string{"B"}, "a", "b", "c", "d", "e", "f"),
		nodeCandidate(s, nil, "a", "b", "c", "d", "e"),
	}, 0.9)
	if len(s.NodeTypes) != 2 {
		t.Fatalf("got %d types, want 2", len(s.NodeTypes))
	}
	a := s.FindByLabelKey(schema.NodeKind, "A")
	if a == nil || a.Instances != 2 {
		t.Errorf("unlabeled candidate should merge into A (instances=2), got %+v", a)
	}
	b := s.FindByLabelKey(schema.NodeKind, "B")
	if b == nil || b.Instances != 1 {
		t.Errorf("B should be untouched, got %+v", b)
	}
}

func TestExtractUnlabeledTieBreaksOnInstances(t *testing.T) {
	s := schema.NewSchema()
	big := nodeCandidate(s, []string{"Big"}, "x", "y")
	big.ObserveNode(&pg.NodeRecord{Labels: []string{"Big"}, Props: pg.Properties{"x": pg.Int(1), "y": pg.Int(1)}}, false)
	small := nodeCandidate(s, []string{"Small"}, "x", "y")
	schema.MergeTypes(s, schema.NodeKind, []*schema.Type{small, big, nodeCandidate(s, nil, "x", "y")}, 0.9)
	b := s.FindByLabelKey(schema.NodeKind, "Big")
	if b.Instances != 3 {
		t.Errorf("tie should break toward the larger type; Big has %d instances, want 3", b.Instances)
	}
}

func TestExtractUnlabeledMergeAmongThemselves(t *testing.T) {
	s := schema.NewSchema()
	schema.MergeTypes(s, schema.NodeKind, []*schema.Type{
		nodeCandidate(s, nil, "p", "q"),
		nodeCandidate(s, nil, "p", "q"),
		nodeCandidate(s, nil, "zzz"),
	}, 0.9)
	if len(s.NodeTypes) != 2 {
		t.Fatalf("got %d types, want 2 abstract types", len(s.NodeTypes))
	}
	if s.NodeTypes[0].Instances != 2 {
		t.Errorf("matching unlabeled clusters should merge: instances = %d, want 2", s.NodeTypes[0].Instances)
	}
	for _, ty := range s.NodeTypes {
		if !ty.Abstract {
			t.Error("all remaining types should be abstract")
		}
	}
}

func TestExtractIncrementalAbstractReuse(t *testing.T) {
	// An unlabeled cluster from a later batch must merge into the abstract
	// type discovered earlier, not create a duplicate.
	s := schema.NewSchema()
	schema.MergeTypes(s, schema.NodeKind, []*schema.Type{nodeCandidate(s, nil, "p", "q")}, 0.9)
	schema.MergeTypes(s, schema.NodeKind, []*schema.Type{nodeCandidate(s, nil, "p", "q")}, 0.9)
	if len(s.NodeTypes) != 1 {
		t.Fatalf("got %d types, want 1", len(s.NodeTypes))
	}
	if s.NodeTypes[0].Instances != 2 {
		t.Errorf("Instances = %d, want 2", s.NodeTypes[0].Instances)
	}
}

func TestExtractIncrementalLabelArrivesLater(t *testing.T) {
	// Batch 1 sees only unlabeled instances; batch 2 brings the labeled
	// cluster. The labeled candidate is appended, and there is no rule
	// merging an older abstract into a newer labeled type in Algorithm 2 —
	// but a *new* unlabeled candidate prefers the labeled type.
	s := schema.NewSchema()
	schema.MergeTypes(s, schema.NodeKind, []*schema.Type{nodeCandidate(s, nil, "name", "age")}, 0.9)
	schema.MergeTypes(s, schema.NodeKind, []*schema.Type{
		nodeCandidate(s, []string{"Person"}, "name", "age"),
		nodeCandidate(s, nil, "name", "age"),
	}, 0.9)
	person := s.FindByLabelKey(schema.NodeKind, "Person")
	if person == nil || person.Instances != 2 {
		t.Fatalf("Person should absorb the new unlabeled candidate, got %+v", person)
	}
}

func TestExtractEdgesMergeByLabelOnly(t *testing.T) {
	// Edge clusters with the same label merge even when endpoints differ;
	// endpoint label sets union (Lemma 2).
	s := schema.NewSchema()
	schema.MergeTypes(s, schema.EdgeKind, []*schema.Type{
		edgeCandidate(s, []string{"LIKES"}, []string{"Person"}, []string{"Post"}),
		edgeCandidate(s, []string{"LIKES"}, []string{"Bot"}, []string{"Comment"}),
	}, 0.9)
	if len(s.EdgeTypes) != 1 {
		t.Fatalf("got %d edge types, want 1", len(s.EdgeTypes))
	}
	e := s.EdgeTypes[0]
	if !e.SrcLabels().Has("Person") || !e.SrcLabels().Has("Bot") {
		t.Error("source endpoint labels lost in merge")
	}
}

func TestExtractUnlabeledEdgesUseEndpointsInJaccard(t *testing.T) {
	// Two unlabeled edge clusters with identical (empty) property sets but
	// different endpoints must NOT merge: edge patterns are distinguished
	// by R as well (Definition 3.6).
	s := schema.NewSchema()
	schema.MergeTypes(s, schema.EdgeKind, []*schema.Type{
		edgeCandidate(s, nil, []string{"Person"}, []string{"Post"}),
		edgeCandidate(s, nil, []string{"Org"}, []string{"Place"}),
	}, 0.9)
	if len(s.EdgeTypes) != 2 {
		t.Fatalf("got %d edge types, want 2 (different endpoints)", len(s.EdgeTypes))
	}
	// Identical endpoints do merge.
	s2 := schema.NewSchema()
	schema.MergeTypes(s2, schema.EdgeKind, []*schema.Type{
		edgeCandidate(s2, nil, []string{"Person"}, []string{"Post"}),
		edgeCandidate(s2, nil, []string{"Person"}, []string{"Post"}),
	}, 0.9)
	if len(s2.EdgeTypes) != 1 {
		t.Fatalf("got %d edge types, want 1 (same endpoints)", len(s2.EdgeTypes))
	}
}

func TestExtractThetaZeroMergesEverythingUnlabeled(t *testing.T) {
	s := schema.NewSchema()
	schema.MergeTypes(s, schema.NodeKind, []*schema.Type{
		nodeCandidate(s, nil, "a"),
		nodeCandidate(s, nil, "b"),
		nodeCandidate(s, nil, "c"),
	}, 0.0)
	if len(s.NodeTypes) != 1 {
		t.Fatalf("θ=0: got %d types, want 1", len(s.NodeTypes))
	}
}

func TestExtractTypeCompleteness(t *testing.T) {
	// §4.7 type completeness: every observed label and property key must be
	// covered by some type after extraction.
	s := schema.NewSchema()
	cands := []*schema.Type{
		nodeCandidate(s, []string{"A"}, "k1", "k2"),
		nodeCandidate(s, []string{"B"}, "k3"),
		nodeCandidate(s, nil, "k4", "k5"),
	}
	schema.MergeTypes(s, schema.NodeKind, cands, 0.9)
	for _, tc := range []struct {
		labels []string
		keys   []string
	}{
		{[]string{"A"}, []string{"k1", "k2"}},
		{[]string{"B"}, []string{"k3"}},
		{nil, []string{"k4", "k5"}},
	} {
		if !s.Covers(schema.NodeKind, tc.labels, tc.keys) {
			t.Errorf("schema does not cover labels=%v keys=%v", tc.labels, tc.keys)
		}
	}
}
