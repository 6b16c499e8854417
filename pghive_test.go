package pghive_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pghive"
)

// buildSocialGraph assembles a small social graph through the public API
// only.
func buildSocialGraph(t testing.TB) *pghive.Graph {
	t.Helper()
	g := pghive.NewGraph()
	var people []pghive.ID
	for i := 0; i < 30; i++ {
		people = append(people, g.AddNode([]string{"Person"}, pghive.Properties{
			"name":   pghive.Str("p"),
			"gender": pghive.Str("x"),
			"bday":   pghive.ParseValue("1999-12-19"),
		}))
	}
	var orgs []pghive.ID
	for i := 0; i < 5; i++ {
		orgs = append(orgs, g.AddNode([]string{"Organization"}, pghive.Properties{
			"name": pghive.Str("o"),
			"url":  pghive.Str("u"),
		}))
	}
	for i := 0; i < 29; i++ {
		if _, err := g.AddEdge([]string{"KNOWS"}, people[i], people[i+1], pghive.Properties{"since": pghive.Int(2017)}); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range people {
		if _, err := g.AddEdge([]string{"WORKS_AT"}, p, orgs[i%len(orgs)], nil); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestPublicAPIDiscover(t *testing.T) {
	g := buildSocialGraph(t)
	res := pghive.Discover(g, pghive.DefaultConfig())
	if len(res.Def.Nodes) != 2 {
		t.Fatalf("got %d node types, want 2", len(res.Def.Nodes))
	}
	if len(res.Def.Edges) != 2 {
		t.Fatalf("got %d edge types, want 2", len(res.Def.Edges))
	}
	works := res.Def.EdgeType("WORKS_AT")
	if works == nil {
		t.Fatal("WORKS_AT missing")
	}
	// Each person works at one org; orgs have many employees → the
	// paper's (1, >1) mapping = 0:N.
	if works.Cardinality != pghive.CardZeroN {
		t.Errorf("WORKS_AT cardinality = %v, want 0:N", works.Cardinality)
	}
}

func TestPublicAPISerializers(t *testing.T) {
	g := buildSocialGraph(t)
	res := pghive.Discover(g, pghive.DefaultConfig())
	var pgs, xsd, js, dot bytes.Buffer
	if err := pghive.WritePGSchema(&pgs, res.Def, "Social", pghive.Strict); err != nil {
		t.Fatal(err)
	}
	if err := pghive.WriteXSD(&xsd, res.Def); err != nil {
		t.Fatal(err)
	}
	if err := pghive.WriteSchemaJSON(&js, res.Def); err != nil {
		t.Fatal(err)
	}
	if err := pghive.WriteDOT(&dot, res.Def); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pgs.String(), "STRICT") {
		t.Error("PG-Schema output missing STRICT")
	}
	for name, buf := range map[string]*bytes.Buffer{"xsd": &xsd, "json": &js, "dot": &dot} {
		if buf.Len() == 0 {
			t.Errorf("%s output empty", name)
		}
	}
}

func TestPublicAPIIncremental(t *testing.T) {
	g := buildSocialGraph(t)
	p := pghive.NewPipeline(pghive.DefaultConfig())
	for _, b := range g.SplitRandom(4, 1) {
		p.ProcessBatch(b)
	}
	def := p.Finalize()
	if len(def.Nodes) != 2 {
		t.Errorf("incremental run found %d node types, want 2", len(def.Nodes))
	}
	if len(p.Reports()) != 4 {
		t.Errorf("got %d reports, want 4", len(p.Reports()))
	}
}

func TestPublicAPIGraphIO(t *testing.T) {
	g := buildSocialGraph(t)
	var buf bytes.Buffer
	if err := pghive.WriteJSONL(&buf, g); err != nil {
		t.Fatal(err)
	}
	loaded, err := pghive.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumNodes() != g.NumNodes() || loaded.NumEdges() != g.NumEdges() {
		t.Error("JSONL round trip changed sizes")
	}

	var nodes, edges bytes.Buffer
	if err := pghive.WriteNodesCSV(&nodes, g); err != nil {
		t.Fatal(err)
	}
	if err := pghive.WriteEdgesCSV(&edges, g); err != nil {
		t.Fatal(err)
	}
	loaded, err = pghive.ReadCSV(&nodes, &edges)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumNodes() != g.NumNodes() {
		t.Error("CSV round trip changed sizes")
	}
}

func TestPublicAPIMinHash(t *testing.T) {
	g := buildSocialGraph(t)
	cfg := pghive.DefaultConfig()
	cfg.Method = pghive.MethodMinHash
	res := pghive.Discover(g, cfg)
	if len(res.Def.Nodes) != 2 {
		t.Errorf("MinHash found %d node types, want 2", len(res.Def.Nodes))
	}
}

func TestPublicAPIBinaryRoundTrip(t *testing.T) {
	g := buildSocialGraph(t)
	var buf bytes.Buffer
	if err := pghive.WriteGraphBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	loaded, err := pghive.ReadGraphBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumNodes() != g.NumNodes() || loaded.NumEdges() != g.NumEdges() {
		t.Error("binary round trip changed sizes")
	}
}

func TestPublicAPIQuery(t *testing.T) {
	g := buildSocialGraph(t)
	res, err := pghive.RunQuery(g, "MATCH (p:Person)-[w:WORKS_AT]->(o:Organization) RETURN count(*)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Value.AsInt() != 30 {
		t.Errorf("count = %v, want 30", res.Rows[0][0].Value)
	}
}

func TestPublicAPIValidate(t *testing.T) {
	g := buildSocialGraph(t)
	def := pghive.Discover(g, pghive.DefaultConfig()).Def
	if r := pghive.ValidateGraph(g, def, pghive.Loose); !r.Valid() {
		t.Errorf("self-validation failed: %v", r.Violations)
	}
	bad := pghive.NewGraph()
	bad.AddNode([]string{"Martian"}, nil)
	if r := pghive.ValidateGraph(bad, def, pghive.Strict); r.Valid() {
		t.Error("unknown label should violate")
	}
}

func TestPublicAPICollector(t *testing.T) {
	c := pghive.NewCollector(pghive.NewPipeline(pghive.DefaultConfig()), 8)
	for i := 0; i < 20; i++ {
		c.AddNode(pghive.NodeRecord{ID: pghive.ID(i), Labels: []string{"T"},
			Props: pghive.Properties{"k": pghive.Int(int64(i))}})
	}
	def := c.Finalize()
	if len(def.Nodes) != 1 || def.Nodes[0].Instances != 20 {
		t.Errorf("collector def = %+v", def.Nodes)
	}
}

func TestPublicAPIAlignLabels(t *testing.T) {
	cfg := pghive.DefaultConfig()
	cfg.AlignLabels = true
	g := pghive.NewGraph()
	for i := 0; i < 5; i++ {
		g.AddNode([]string{"Organisation"}, pghive.Properties{"n": pghive.Str("a")})
		g.AddNode([]string{"Organization"}, pghive.Properties{"n": pghive.Str("b")})
	}
	res := pghive.Discover(g, cfg)
	if len(res.Def.Nodes) != 1 {
		t.Errorf("aligned discovery found %d types, want 1", len(res.Def.Nodes))
	}
}

func TestPublicAPISamplingError(t *testing.T) {
	g := buildSocialGraph(t)
	res := pghive.Discover(g, pghive.DefaultConfig())
	for _, ty := range res.Schema.NodeTypes {
		ty.EachProp(func(_ string, stat *pghive.PropStat) {
			if e := pghive.SamplingError(stat); e < 0 || e > 1 {
				t.Errorf("sampling error %v out of range", e)
			}
		})
	}
}

func TestPublicAPIDiscoverStream(t *testing.T) {
	g := buildSocialGraph(t)
	res := pghive.DiscoverStream(pghive.NewSliceSource(g.SplitRandom(3, 1)...), pghive.DefaultConfig())
	if len(res.Def.Nodes) != 2 {
		t.Errorf("stream discovery found %d node types, want 2", len(res.Def.Nodes))
	}
}

func TestPublicAPIValueConstructors(t *testing.T) {
	vals := []pghive.Value{
		pghive.Int(1), pghive.Float(1.5), pghive.Bool(true), pghive.Str("s"),
		pghive.Date(time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)),
		pghive.Timestamp(time.Date(2020, 1, 1, 1, 0, 0, 0, time.UTC)),
	}
	kinds := []pghive.Kind{
		pghive.KindInt, pghive.KindFloat, pghive.KindBool, pghive.KindString,
		pghive.KindDate, pghive.KindTimestamp,
	}
	for i, v := range vals {
		if v.Kind() != kinds[i] {
			t.Errorf("value %d kind = %v, want %v", i, v.Kind(), kinds[i])
		}
	}
}
