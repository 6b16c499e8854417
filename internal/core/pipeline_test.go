package core

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"pghive/internal/datagen"
	"pghive/internal/lsh"
	"pghive/internal/pg"
	"pghive/internal/schema"
	"pghive/internal/serialize"
)

// figure1Graph rebuilds the paper's running example.
func figure1Graph(t testing.TB) *pg.Graph {
	t.Helper()
	g := pg.NewGraph()
	bob := g.AddNode([]string{"Person"}, pg.Properties{"name": pg.Str("Bob"), "gender": pg.Str("m"), "bday": pg.ParseValue("19/12/1999")})
	john := g.AddNode([]string{"Person"}, pg.Properties{"name": pg.Str("John"), "gender": pg.Str("m"), "bday": pg.ParseValue("01/05/1985")})
	alice := g.AddNode(nil, pg.Properties{"name": pg.Str("Alice"), "gender": pg.Str("f"), "bday": pg.ParseValue("07/07/1990")})
	org := g.AddNode([]string{"Organization"}, pg.Properties{"name": pg.Str("FORTH"), "url": pg.Str("https://ics.forth.gr")})
	post1 := g.AddNode([]string{"Post"}, pg.Properties{"imgFile": pg.Str("x.png")})
	post2 := g.AddNode([]string{"Post"}, pg.Properties{"content": pg.Str("hello")})
	place := g.AddNode([]string{"Place"}, pg.Properties{"name": pg.Str("Heraklion")})
	edges := []struct {
		label    string
		src, dst pg.ID
		props    pg.Properties
	}{
		{"KNOWS", alice, john, pg.Properties{"since": pg.Int(2017)}},
		{"KNOWS", bob, john, nil},
		{"LIKES", alice, post1, nil},
		{"LIKES", john, post2, nil},
		{"WORKS_AT", bob, org, pg.Properties{"from": pg.Int(2020)}},
		{"LOCATED_IN", alice, place, nil},
	}
	for _, e := range edges {
		if _, err := g.AddEdge([]string{e.label}, e.src, e.dst, e.props); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func nodeTypeNames(def *schema.Def) []string {
	var out []string
	for _, n := range def.Nodes {
		out = append(out, n.Name)
	}
	sort.Strings(out)
	return out
}

func edgeTypeNames(def *schema.Def) []string {
	var out []string
	for _, e := range def.Edges {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

func TestDiscoverFigure1ELSH(t *testing.T)    { testDiscoverFigure1(t, MethodELSH) }
func TestDiscoverFigure1MinHash(t *testing.T) { testDiscoverFigure1(t, MethodMinHash) }

func testDiscoverFigure1(t *testing.T, m Method) {
	g := figure1Graph(t)
	cfg := DefaultConfig()
	cfg.Method = m
	res := Discover(pg.NewSliceSource(g.Snapshot()), cfg)

	want := []string{"Organization", "Person", "Place", "Post"}
	if got := nodeTypeNames(res.Def); !equalStrings(got, want) {
		t.Errorf("node types = %v, want %v", got, want)
	}
	wantE := []string{"KNOWS", "LIKES", "LOCATED_IN", "WORKS_AT"}
	if got := edgeTypeNames(res.Def); !equalStrings(got, wantE) {
		t.Errorf("edge types = %v, want %v", got, wantE)
	}

	// Alice (unlabeled) must be absorbed into Person: 3 instances.
	person := res.Def.NodeType("Person")
	if person.Instances != 3 {
		t.Errorf("Person instances = %d, want 3 (Alice merged)", person.Instances)
	}

	// Example 6: Post's imgFile is optional.
	post := res.Def.NodeType("Post")
	img := schema.Property(post.Properties, "imgFile")
	if img == nil || img.Mandatory {
		t.Errorf("imgFile = %+v, want optional", img)
	}

	// Example 7: bday is a DATE.
	bday := schema.Property(person.Properties, "bday")
	if bday == nil || bday.DataType != pg.KindDate {
		t.Errorf("bday = %+v, want DATE", bday)
	}

	// Example 8-adjacent: KNOWS has max_in = 2 (John is known by two) and
	// max_out = 1 → the paper's (1, >1) = 0:N.
	knows := res.Def.EdgeType("KNOWS")
	if knows.Cardinality != schema.CardZeroN {
		t.Errorf("KNOWS cardinality = %v (out=%d,in=%d), want 0:N", knows.Cardinality, knows.MaxOut, knows.MaxIn)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDiscoverDeterministic(t *testing.T) {
	g := figure1Graph(t)
	cfg := DefaultConfig()
	a := Discover(pg.NewSliceSource(g.Snapshot()), cfg)
	b := Discover(pg.NewSliceSource(g.Snapshot()), cfg)
	if !equalStrings(nodeTypeNames(a.Def), nodeTypeNames(b.Def)) {
		t.Error("node types differ across identical runs")
	}
	if !equalStrings(edgeTypeNames(a.Def), edgeTypeNames(b.Def)) {
		t.Error("edge types differ across identical runs")
	}
}

func TestDiscoverIncrementalMatchesSingleBatch(t *testing.T) {
	// Splitting into batches must produce the same set of labeled types
	// (monotone merging), for both methods.
	g := figure1Graph(t)
	for _, m := range []Method{MethodELSH, MethodMinHash} {
		cfg := DefaultConfig()
		cfg.Method = m
		single := Discover(pg.NewSliceSource(g.Snapshot()), cfg)
		batched := Discover(pg.NewSliceSource(g.SplitRandom(3, 7)...), cfg)
		if !equalStrings(nodeTypeNames(single.Def), nodeTypeNames(batched.Def)) {
			t.Errorf("%v: batched node types %v != single %v", m, nodeTypeNames(batched.Def), nodeTypeNames(single.Def))
		}
		if !equalStrings(edgeTypeNames(single.Def), edgeTypeNames(batched.Def)) {
			t.Errorf("%v: batched edge types %v != single %v", m, edgeTypeNames(batched.Def), edgeTypeNames(single.Def))
		}
	}
}

func TestIncrementalMonotone(t *testing.T) {
	// §4.6: after each batch the schema covers everything the previous
	// schema covered (S_i ⊑ S_{i+1}).
	g := figure1Graph(t)
	p := NewPipeline(DefaultConfig())
	var prevLabels []string
	var prevKeys []string
	for _, b := range g.SplitRandom(4, 3) {
		p.ProcessBatch(b)
		s := p.Schema()
		for _, l := range prevLabels {
			if !s.AllLabels(schema.NodeKind).Has(l) {
				t.Fatalf("label %q lost after batch", l)
			}
		}
		for _, k := range prevKeys {
			if !s.AllPropertyKeys(schema.NodeKind).Has(k) {
				t.Fatalf("property %q lost after batch", k)
			}
		}
		prevLabels = s.AllLabels(schema.NodeKind).Sorted()
		prevKeys = s.AllPropertyKeys(schema.NodeKind).Sorted()
	}
}

func TestTypeCompletenessOnGraph(t *testing.T) {
	// §4.7: for every node v there is a type t with λ(v) ⊆ λ(t) and
	// P_v ⊆ π(t).
	g := figure1Graph(t)
	for _, m := range []Method{MethodELSH, MethodMinHash} {
		cfg := DefaultConfig()
		cfg.Method = m
		res := Discover(pg.NewSliceSource(g.Snapshot()), cfg)
		g.Nodes(func(n *pg.Node) bool {
			if !res.Schema.Covers(schema.NodeKind, n.Labels, n.Props.Keys()) {
				t.Errorf("%v: node %d (labels=%v) not covered", m, n.ID, n.Labels)
			}
			return true
		})
		g.Edges(func(e *pg.Edge) bool {
			if !res.Schema.Covers(schema.EdgeKind, e.Labels, e.Props.Keys()) {
				t.Errorf("%v: edge %d (labels=%v) not covered", m, e.ID, e.Labels)
			}
			return true
		})
	}
}

func TestDiscoverNoLabels(t *testing.T) {
	// With all labels stripped, discovery must still produce types —
	// structurally identical elements group together (the paper's 0% label
	// availability scenario).
	g := pg.NewGraph()
	for i := 0; i < 20; i++ {
		g.AddNode(nil, pg.Properties{"name": pg.Str("x"), "age": pg.Int(int64(i))})
	}
	for i := 0; i < 20; i++ {
		g.AddNode(nil, pg.Properties{"title": pg.Str("t"), "isbn": pg.Str("i"), "pages": pg.Int(9)})
	}
	res := Discover(pg.NewSliceSource(g.Snapshot()), DefaultConfig())
	if len(res.Def.Nodes) != 2 {
		t.Fatalf("got %d node types, want 2", len(res.Def.Nodes))
	}
	for _, n := range res.Def.Nodes {
		if !n.Abstract {
			t.Errorf("type %q should be abstract (no labels anywhere)", n.Name)
		}
		if n.Instances != 20 {
			t.Errorf("type %q instances = %d, want 20", n.Name, n.Instances)
		}
	}
}

func TestDiscoverEmptySource(t *testing.T) {
	res := Discover(pg.NewSliceSource(), DefaultConfig())
	if len(res.Def.Nodes) != 0 || len(res.Def.Edges) != 0 {
		t.Error("empty source should produce an empty schema")
	}
	res = Discover(pg.NewSliceSource(&pg.Batch{}), DefaultConfig())
	if len(res.Def.Nodes) != 0 || len(res.Def.Edges) != 0 {
		t.Error("empty batch should produce an empty schema")
	}
}

func TestReportsPopulated(t *testing.T) {
	g := figure1Graph(t)
	p := NewPipeline(DefaultConfig())
	for _, b := range g.SplitRandom(2, 1) {
		p.ProcessBatch(b)
	}
	reports := p.Reports()
	if len(reports) != 2 {
		t.Fatalf("got %d reports, want 2", len(reports))
	}
	totalNodes := 0
	for i, r := range reports {
		if r.Batch != i {
			t.Errorf("report %d has Batch=%d", i, r.Batch)
		}
		totalNodes += r.Nodes
		if r.Nodes > 0 && r.NodeClusters == 0 {
			t.Errorf("report %d: nodes but no clusters", i)
		}
		if r.Total() <= 0 {
			t.Errorf("report %d: non-positive total duration", i)
		}
	}
	if totalNodes != g.NumNodes() {
		t.Errorf("reports cover %d nodes, want %d", totalNodes, g.NumNodes())
	}
}

func TestManualParamsRespected(t *testing.T) {
	g := figure1Graph(t)
	cfg := DefaultConfig()
	cfg.NodeParams = &lsh.Params{Bucket: 2.5, Tables: 7}
	cfg.EdgeParams = &lsh.Params{Bucket: 3.0, Tables: 9}
	p := NewPipeline(cfg)
	r := p.ProcessBatch(g.Snapshot())
	if r.NodeParams.Bucket != 2.5 || r.NodeParams.Tables != 7 {
		t.Errorf("node params = %+v, want manual (2.5, 7)", r.NodeParams)
	}
	if r.EdgeParams.Bucket != 3.0 || r.EdgeParams.Tables != 9 {
		t.Errorf("edge params = %+v, want manual (3.0, 9)", r.EdgeParams)
	}
}

func TestTrackMembersRecordsAssignments(t *testing.T) {
	g := figure1Graph(t)
	cfg := DefaultConfig()
	cfg.TrackMembers = true
	res := Discover(pg.NewSliceSource(g.Snapshot()), cfg)
	total := 0
	for _, ty := range res.Schema.NodeTypes {
		total += len(ty.Members)
	}
	if total != g.NumNodes() {
		t.Errorf("tracked %d node members, want %d", total, g.NumNodes())
	}
}

func TestMinHashBandedMode(t *testing.T) {
	g := figure1Graph(t)
	cfg := DefaultConfig()
	cfg.Method = MethodMinHash
	cfg.MinHashRows = 2
	res := Discover(pg.NewSliceSource(g.Snapshot()), cfg)
	if len(res.Def.Nodes) == 0 || len(res.Def.Edges) == 0 {
		t.Error("banded MinHash produced an empty schema")
	}
}

// decide reserves the key's next ordinal and decides it — what
// sampleCandidates does for a key one member of one candidate carries.
func decide(s *sampler, kind sampleKind, id uint32, key string) bool {
	return s.sampled(keyHash(kind.prefix, key), s.reserve(kind, id, 1))
}

func TestSamplerDeterministicAndMinimum(t *testing.T) {
	s := newSampler(0.1, 5, 42)
	s2 := newSampler(0.1, 5, 42)
	for i := 0; i < 200; i++ {
		a, b := decide(s, sampleNodes, 7, "key"), decide(s2, sampleNodes, 7, "key")
		if a != b {
			t.Fatal("sampler not deterministic")
		}
		if i < 5 && !a {
			t.Errorf("observation %d below minimum should be sampled", i)
		}
	}
}

func TestSamplerFractionRoughlyHolds(t *testing.T) {
	s := newSampler(0.1, 100, 1)
	hits := 0
	const extra = 20000
	for i := 0; i < 100+extra; i++ {
		if decide(s, sampleEdges, 3, "k") && i >= 100 {
			hits++
		}
	}
	rate := float64(hits) / extra
	if rate < 0.07 || rate > 0.13 {
		t.Errorf("post-minimum sampling rate = %.3f, want ≈ 0.10", rate)
	}
}

// TestSampleKindsIndependentOfScheduling: the data-type sample is part of
// the discovered schema, so — like every other output — it must not depend
// on the execution-only Parallelism and PipelineDepth. Candidates of one
// batch are observed in parallel; an observation's sample decision hangs on
// its per-key ordinal, so ordinals must follow cluster and member order,
// not the order goroutines reach a shared counter. Every type's
// SampleKinds and the sample-based JSON output must match the serial run's.
// IYP's types share property keys whose values differ in kind, and a low
// SampleMin puts most observations on the fractional draw.
func TestSampleKindsIndependentOfScheduling(t *testing.T) {
	ds := datagen.Generate(datagen.ProfileByName("IYP"), datagen.Options{Nodes: 3000, Seed: 1})
	batches := ds.Graph.SplitRandom(3, 5)
	var wantKinds, wantJSON []byte
	for _, par := range []int{1, 4} {
		for _, depth := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.SampleDatatypes = true
			cfg.SampleMin = 10
			cfg.Parallelism = par
			cfg.PipelineDepth = depth
			res := Discover(pg.NewSliceSource(batches...), cfg)
			var kinds, out bytes.Buffer
			for _, types := range [][]*schema.Type{res.Schema.NodeTypes, res.Schema.EdgeTypes} {
				for ti, ty := range types {
					for _, key := range ty.PropKeyStrings() {
						fmt.Fprintf(&kinds, "%d %q %q %v\n", ti, ty.LabelKey(), key, ty.Prop(key).SampleKinds)
					}
				}
			}
			if err := serialize.WriteJSON(&out, res.Def); err != nil {
				t.Fatal(err)
			}
			if wantKinds == nil {
				wantKinds, wantJSON = kinds.Bytes(), out.Bytes()
				continue
			}
			if !bytes.Equal(kinds.Bytes(), wantKinds) {
				t.Errorf("parallelism=%d depth=%d: SampleKinds differ from the serial run", par, depth)
			}
			if !bytes.Equal(out.Bytes(), wantJSON) {
				t.Errorf("parallelism=%d depth=%d: sample-based JSON differs from the serial run", par, depth)
			}
		}
	}
}

// TestSampleCandidatesMatchesSerialDecider: sampleCandidates gives every
// observation the ordinal a serial observer gives it — per key, over the
// clusters in order, then over each cluster's members in order — so the
// candidates carry exactly the SampleKinds of a reference that walks the
// members one at a time, deciding each property occurrence as it comes,
// batch after batch. Key "v" mixes kinds within a cluster (the member
// walk); the other keys hold one kind (the range count).
func TestSampleCandidatesMatchesSerialDecider(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SampleMin = 7
	cfg.Parallelism = 4
	p := NewPipeline(cfg)
	ref := newSampler(p.cfg.SampleFraction, p.cfg.SampleMin, p.cfg.Seed)
	for batch := 0; batch < 3; batch++ {
		b := &pg.Batch{}
		for i := 0; i < 400; i++ {
			v := pg.Int(int64(i))
			if (i+batch)%3 == 0 {
				v = pg.Str("s")
			}
			b.Nodes = append(b.Nodes, pg.NodeRecord{ID: pg.ID(i), Props: pg.Properties{
				"v": v, "name": pg.Str("n"), fmt.Sprintf("k%d", i%4): pg.Int(1),
			}})
		}
		// Five interleaved clusters, members in descending order.
		clusters := make([]lsh.Cluster, 5)
		for i := len(b.Nodes) - 1; i >= 0; i-- {
			clusters[(i*7+batch)%5].Members = append(clusters[(i*7+batch)%5].Members, i)
		}
		p.internShapes(pg.IndexShapes(b))
		got := p.nodeCandidates(b, clusters)
		for ci, c := range clusters {
			want := map[string]map[pg.Kind]int{}
			for _, i := range c.Members {
				for key, v := range b.Nodes[i].Props {
					id, _ := p.schema.Tab.Lookup(key)
					if !decide(ref, sampleNodes, id, key) {
						continue
					}
					if want[key] == nil {
						want[key] = map[pg.Kind]int{}
					}
					want[key][v.Kind()]++
				}
			}
			for _, key := range got[ci].PropKeyStrings() {
				w, g := want[key], got[ci].Prop(key).SampleKinds
				if fmt.Sprint(w) != fmt.Sprint(g) {
					t.Errorf("batch %d cluster %d key %q: SampleKinds %v, serial decider %v", batch, ci, key, g, w)
				}
			}
		}
	}
}

func TestParmapCoversAll(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 100} {
		n := 57
		hits := make([]int, n)
		parmap(n, workers, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
	parmap(0, 4, func(int) { t.Fatal("must not be called") })
}

func TestMethodString(t *testing.T) {
	if MethodELSH.String() != "PG-HIVE-ELSH" || MethodMinHash.String() != "PG-HIVE-MinHash" {
		t.Error("method names wrong")
	}
}

func TestAlignLabelsMergesVariants(t *testing.T) {
	// Two sources with spelling variants: Organization vs Organisation.
	g := pg.NewGraph()
	for i := 0; i < 20; i++ {
		g.AddNode([]string{"Organization"}, pg.Properties{"name": pg.Str("a"), "vat": pg.Str("v")})
	}
	for i := 0; i < 10; i++ {
		g.AddNode([]string{"Organisation"}, pg.Properties{"name": pg.Str("b"), "vat": pg.Str("w")})
	}
	// Without alignment: two types.
	plain := Discover(pg.NewSliceSource(g.Snapshot()), DefaultConfig())
	if len(plain.Def.Nodes) != 2 {
		t.Fatalf("without alignment: %d types, want 2", len(plain.Def.Nodes))
	}
	// With alignment: one type under the first-seen spelling.
	cfg := DefaultConfig()
	cfg.AlignLabels = true
	aligned := Discover(pg.NewSliceSource(g.Snapshot()), cfg)
	if len(aligned.Def.Nodes) != 1 {
		t.Fatalf("with alignment: %d types, want 1", len(aligned.Def.Nodes))
	}
	if aligned.Def.Nodes[0].Instances != 30 {
		t.Errorf("aligned type instances = %d, want 30", aligned.Def.Nodes[0].Instances)
	}
}

func TestAlignLabelsDoesNotMutateGraph(t *testing.T) {
	g := pg.NewGraph()
	g.AddNode([]string{"Colour"}, nil)
	g.AddNode([]string{"Color"}, nil)
	cfg := DefaultConfig()
	cfg.AlignLabels = true
	Discover(pg.NewSliceSource(g.Snapshot()), cfg)
	if g.Node(0).Labels[0] != "Colour" || g.Node(1).Labels[0] != "Color" {
		t.Error("alignment mutated the source graph's labels")
	}
}

func TestAlignerExposedForReporting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AlignLabels = true
	p := NewPipeline(cfg)
	if p.Aligner() == nil {
		t.Fatal("aligner should be available when enabled")
	}
	if NewPipeline(DefaultConfig()).Aligner() != nil {
		t.Error("aligner should be nil when disabled")
	}
}
