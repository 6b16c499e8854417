package datagen

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"pghive/internal/pg"
)

func TestProfilesMatchTable2TypeCounts(t *testing.T) {
	// Node/edge type counts and label counts per Table 2 of the paper.
	want := map[string]struct{ nt, et, nl, el int }{
		"POLE":   {11, 17, 11, 16},
		"MB6":    {4, 5, 10, 3},
		"HET.IO": {11, 24, 12, 24},
		"FIB25":  {4, 5, 10, 3},
		"ICIJ":   {5, 14, 6, 14},
		"CORD19": {16, 16, 16, 16},
		"LDBC":   {7, 17, 8, 15},
		"IYP":    {86, 25, 33, 25},
	}
	for _, p := range Profiles() {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected profile %q", p.Name)
			continue
		}
		if len(p.NodeTypes) != w.nt {
			t.Errorf("%s: %d node types, want %d", p.Name, len(p.NodeTypes), w.nt)
		}
		if len(p.EdgeTypes) != w.et {
			t.Errorf("%s: %d edge types, want %d", p.Name, len(p.EdgeTypes), w.et)
		}
		nodeLabels := map[string]struct{}{}
		for _, nt := range p.NodeTypes {
			for _, l := range nt.Labels {
				nodeLabels[l] = struct{}{}
			}
		}
		if len(nodeLabels) != w.nl {
			t.Errorf("%s: %d node labels, want %d", p.Name, len(nodeLabels), w.nl)
		}
		edgeLabels := map[string]struct{}{}
		for _, et := range p.EdgeTypes {
			for _, l := range et.Labels {
				edgeLabels[l] = struct{}{}
			}
		}
		if len(edgeLabels) != w.el {
			t.Errorf("%s: %d edge labels, want %d", p.Name, len(edgeLabels), w.el)
		}
	}
}

func TestProfileEdgeSpecsReferenceExistingTypes(t *testing.T) {
	for _, p := range Profiles() {
		names := map[string]bool{}
		for _, nt := range p.NodeTypes {
			names[nt.Name] = true
		}
		for _, et := range p.EdgeTypes {
			if !names[et.Src] {
				t.Errorf("%s: edge %q references unknown source type %q", p.Name, et.Name, et.Src)
			}
			if !names[et.Dst] {
				t.Errorf("%s: edge %q references unknown target type %q", p.Name, et.Name, et.Dst)
			}
		}
	}
}

func TestProfileTypeNamesUnique(t *testing.T) {
	for _, p := range Profiles() {
		seen := map[string]bool{}
		for _, nt := range p.NodeTypes {
			if seen[nt.Name] {
				t.Errorf("%s: duplicate node type name %q", p.Name, nt.Name)
			}
			seen[nt.Name] = true
		}
		seenE := map[string]bool{}
		for _, et := range p.EdgeTypes {
			if seenE[et.Name] {
				t.Errorf("%s: duplicate edge type name %q", p.Name, et.Name)
			}
			seenE[et.Name] = true
		}
	}
}

func TestGenerateSizes(t *testing.T) {
	for _, p := range Profiles() {
		ds := Generate(p, Options{Nodes: 1000, Seed: 1})
		if got := ds.Graph.NumNodes(); got != 1000 {
			t.Errorf("%s: %d nodes, want 1000", p.Name, got)
		}
		wantEdges := int(1000*p.EdgeFactor + 0.5)
		got := ds.Graph.NumEdges()
		// FanIn/FanOut/OneToOne shapes cap per-type counts at pool sizes,
		// so allow a deficit but no overshoot.
		if got > wantEdges || got < wantEdges/2 {
			t.Errorf("%s: %d edges, want ≈ %d", p.Name, got, wantEdges)
		}
	}
}

func TestGenerateGroundTruthComplete(t *testing.T) {
	ds := Generate(POLE(), Options{Nodes: 500, Seed: 2})
	ds.Graph.Nodes(func(n *pg.Node) bool {
		if _, ok := ds.NodeTruth[n.ID]; !ok {
			t.Errorf("node %d has no ground truth", n.ID)
		}
		return true
	})
	ds.Graph.Edges(func(e *pg.Edge) bool {
		if _, ok := ds.EdgeTruth[e.ID]; !ok {
			t.Errorf("edge %d has no ground truth", e.ID)
		}
		return true
	})
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(LDBC(), Options{Nodes: 300, Seed: 9})
	b := Generate(LDBC(), Options{Nodes: 300, Seed: 9})
	if a.Graph.ComputeStats() != b.Graph.ComputeStats() {
		t.Error("same seed should reproduce the dataset")
	}
	c := Generate(LDBC(), Options{Nodes: 300, Seed: 10})
	var bufA, bufC bytes.Buffer
	if err := pg.WriteJSONL(&bufA, a.Graph); err != nil {
		t.Fatal(err)
	}
	if err := pg.WriteJSONL(&bufC, c.Graph); err != nil {
		t.Fatal(err)
	}
	if bufA.String() == bufC.String() {
		t.Error("different seeds should vary the dataset")
	}
}

func TestGenerateLabelsMatchTruth(t *testing.T) {
	ds := Generate(HetIO(), Options{Nodes: 400, Seed: 3})
	specByName := map[string][]string{}
	for _, nt := range HetIO().NodeTypes {
		specByName[nt.Name] = nt.Labels
	}
	ds.Graph.Nodes(func(n *pg.Node) bool {
		want := pg.LabelSetKey(specByName[ds.NodeTruth[n.ID]])
		if n.LabelKey() != want {
			t.Errorf("node %d labels %q, want %q", n.ID, n.LabelKey(), want)
		}
		return true
	})
	// Every HET.IO node carries the shared integration label.
	if got := len(ds.Graph.NodesWithLabel("HetionetNode")); got != 400 {
		t.Errorf("HetionetNode on %d nodes, want 400", got)
	}
}

func TestGenerateShapesProduceCardinalities(t *testing.T) {
	ds := Generate(POLE(), Options{Nodes: 2000, Seed: 4})
	deg := ds.Graph.MaxDegrees()
	// HAS_PHONE is OneToOne: both max degrees 1.
	if d := deg["HAS_PHONE"]; d.MaxOut != 1 || d.MaxIn != 1 {
		t.Errorf("HAS_PHONE degrees %+v, want (1,1)", d)
	}
	// CURRENT_ADDRESS is FanIn: max_out = 1, shared targets.
	if d := deg["CURRENT_ADDRESS"]; d.MaxOut != 1 {
		t.Errorf("CURRENT_ADDRESS MaxOut = %d, want 1", d.MaxOut)
	}
	// KNOWS is ManyToMany: with 2000 nodes both sides exceed 1.
	if d := deg["KNOWS"]; d.MaxOut < 2 || d.MaxIn < 2 {
		t.Errorf("KNOWS degrees %+v, want both > 1", d)
	}
}

func TestGenerateMultiplePatternsPerType(t *testing.T) {
	// Optional properties must create more patterns than types (the
	// Table 2 phenomenon).
	ds := Generate(ICIJ(), Options{Nodes: 2000, Seed: 5})
	stats := ds.Graph.ComputeStats()
	if stats.NodePatterns <= len(ICIJ().NodeTypes) {
		t.Errorf("ICIJ node patterns = %d, want > %d (heterogeneity)", stats.NodePatterns, len(ICIJ().NodeTypes))
	}
	if stats.NodePatterns < 50 {
		t.Errorf("ICIJ node patterns = %d, want ≥ 50 (highly heterogeneous)", stats.NodePatterns)
	}
}

// TestApportion: every split is non-negative and sums to total, also for
// weights that sum to zero or whose product with total overflows — cases
// that once spun for ~2^63 iterations, so each runs against a deadline.
func TestApportion(t *testing.T) {
	tests := []struct {
		total   int
		weights []float64
	}{
		{100, []float64{1, 1, 1}},
		{7, []float64{5, 1}},
		{3, []float64{1, 1, 1, 1, 1}}, // fewer than groups
		{0, []float64{2, 3}},
		{1000, []float64{0.5, 99.5}},
		{5, []float64{0}},           // zero sum
		{5000, []float64{1e308, 1}}, // total·w overflows
		{3, []float64{0, 0}},        // zero sum, several groups
	}
	for _, tc := range tests {
		done := make(chan []int, 1)
		go func() { done <- apportion(tc.total, tc.weights) }()
		var out []int
		select {
		case out = <-done:
		case <-time.After(5 * time.Second):
			t.Errorf("apportion(%d,%v) did not return within 5s", tc.total, tc.weights)
			continue
		}
		sum := 0
		for _, c := range out {
			if c < 0 {
				t.Errorf("apportion(%d,%v) produced negative count %v", tc.total, tc.weights, out)
			}
			sum += c
		}
		if sum != tc.total {
			t.Errorf("apportion(%d,%v) sums to %d", tc.total, tc.weights, sum)
		}
	}
}

func TestApportionQuick(t *testing.T) {
	f := func(total uint16, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 20 {
			raw = raw[:20]
		}
		weights := make([]float64, len(raw))
		for i, r := range raw {
			weights[i] = float64(r)
		}
		out := apportion(int(total)%5000, weights)
		sum := 0
		for _, c := range out {
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == int(total)%5000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNoiseLabelAvailability(t *testing.T) {
	ds := Generate(POLE(), Options{Nodes: 2000, Seed: 6})
	for _, avail := range []float64{1.0, 0.5, 0.0} {
		noisy := Noise{PropRemoval: 0, LabelAvailability: avail, Seed: 7}.Apply(ds)
		labeled := 0
		noisy.Graph.Nodes(func(n *pg.Node) bool {
			if len(n.Labels) > 0 {
				labeled++
			}
			return true
		})
		frac := float64(labeled) / float64(noisy.Graph.NumNodes())
		if avail == 1.0 && frac != 1.0 {
			t.Errorf("avail=1: labeled fraction %v, want 1", frac)
		}
		if avail == 0.0 && frac != 0.0 {
			t.Errorf("avail=0: labeled fraction %v, want 0", frac)
		}
		if avail == 0.5 && (frac < 0.45 || frac > 0.55) {
			t.Errorf("avail=0.5: labeled fraction %v, want ≈ 0.5", frac)
		}
	}
}

func TestNoiseKeepsEdgeLabelsByDefault(t *testing.T) {
	// The availability sweep strips node labels only (§5 of the paper);
	// edge labels survive unless EdgeLabelRemoval is set.
	ds := Generate(POLE(), Options{Nodes: 500, Seed: 20})
	noisy := NewNoise(0.4, 0, 21).Apply(ds)
	noisy.Graph.Edges(func(e *pg.Edge) bool {
		if len(e.Labels) == 0 {
			t.Fatalf("edge %d lost its labels", e.ID)
		}
		return true
	})
	stripped := Noise{LabelAvailability: 1, EdgeLabelRemoval: 1, Seed: 22}.Apply(ds)
	stripped.Graph.Edges(func(e *pg.Edge) bool {
		if len(e.Labels) != 0 {
			t.Fatalf("edge %d kept labels despite EdgeLabelRemoval=1", e.ID)
		}
		return true
	})
}

func TestNoisePropRemoval(t *testing.T) {
	ds := Generate(POLE(), Options{Nodes: 2000, Seed: 8})
	countProps := func(g *pg.Graph) int {
		n := 0
		g.Nodes(func(node *pg.Node) bool { n += len(node.Props); return true })
		return n
	}
	before := countProps(ds.Graph)
	noisy := NewNoise(0.4, 1, 9).Apply(ds)
	after := countProps(noisy.Graph)
	ratio := float64(after) / float64(before)
	if ratio < 0.55 || ratio > 0.65 {
		t.Errorf("40%% removal kept %.3f of properties, want ≈ 0.6", ratio)
	}
}

func TestNoisePreservesStructure(t *testing.T) {
	ds := Generate(MB6(), Options{Nodes: 500, Seed: 10})
	noisy := NewNoise(0.3, 0.5, 11).Apply(ds)
	if noisy.Graph.NumNodes() != ds.Graph.NumNodes() || noisy.Graph.NumEdges() != ds.Graph.NumEdges() {
		t.Error("noise must not change graph size")
	}
	// IDs and truth maps survive.
	noisy.Graph.Nodes(func(n *pg.Node) bool {
		if _, ok := noisy.NodeTruth[n.ID]; !ok {
			t.Errorf("node %d lost its ground truth", n.ID)
		}
		return true
	})
	// Original untouched.
	labeled := 0
	ds.Graph.Nodes(func(n *pg.Node) bool {
		if len(n.Labels) > 0 {
			labeled++
		}
		return true
	})
	if labeled != ds.Graph.NumNodes() {
		t.Error("Apply mutated the source dataset")
	}
}

func TestNoiseDeterministic(t *testing.T) {
	ds := Generate(LDBC(), Options{Nodes: 300, Seed: 12})
	a := NewNoise(0.2, 0.5, 13).Apply(ds)
	b := NewNoise(0.2, 0.5, 13).Apply(ds)
	if a.Graph.ComputeStats() != b.Graph.ComputeStats() {
		t.Error("noise not deterministic")
	}
}

func TestProfileByName(t *testing.T) {
	if ProfileByName("LDBC") == nil || ProfileByName("nope") != nil {
		t.Error("ProfileByName lookup wrong")
	}
}

func TestGenerateDefaultScale(t *testing.T) {
	ds := Generate(POLE(), Options{Seed: 1})
	if ds.Graph.NumNodes() != DefaultScaleNodes {
		t.Errorf("default nodes = %d, want %d", ds.Graph.NumNodes(), DefaultScaleNodes)
	}
}

func TestMixedKindsAppear(t *testing.T) {
	// ICIJ's mixed-kind properties must actually produce both kinds.
	ds := Generate(ICIJ(), Options{Nodes: 3000, Seed: 14})
	kinds := map[pg.Kind]int{}
	ds.Graph.Nodes(func(n *pg.Node) bool {
		if v, ok := n.Props["incorporation_date"]; ok {
			kinds[v.Kind()]++
		}
		return true
	})
	if kinds[pg.KindDate] == 0 || kinds[pg.KindString] == 0 {
		t.Errorf("incorporation_date kinds = %v, want both DATE and STRING", kinds)
	}
}
