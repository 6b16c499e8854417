package datagen

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"pghive/internal/pg"
)

func TestScenariosValidAndNamed(t *testing.T) {
	scs := Scenarios()
	if len(scs) < 5 {
		t.Fatalf("only %d named scenarios, want ≥ 5", len(scs))
	}
	seen := map[string]bool{}
	for _, sc := range scs {
		if err := sc.Validate(); err != nil {
			t.Errorf("scenario %q invalid: %v", sc.Name, err)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if ScenarioByName(sc.Name) == nil {
			t.Errorf("ScenarioByName(%q) = nil", sc.Name)
		}
	}
	for _, want := range []string{"skew", "gradual-drift", "abrupt-drift", "supernodes", "near-theta"} {
		if !seen[want] {
			t.Errorf("required scenario %q missing", want)
		}
	}
	if ScenarioByName("nope") != nil {
		t.Error("ScenarioByName(nope) should be nil")
	}
}

// Same spec + seed → byte-identical stream; a different seed diverges.
func TestScenarioStreamReproducible(t *testing.T) {
	for _, sc := range Scenarios() {
		h1, batches, nodes, edges := HashStream(sc.Stream(1))
		h2, _, _, _ := HashStream(sc.Stream(1))
		if h1 != h2 {
			t.Errorf("%s: same seed produced different streams", sc.Name)
		}
		h3, _, _, _ := HashStream(sc.Stream(2))
		if h1 == h3 {
			t.Errorf("%s: seeds 1 and 2 produced identical streams", sc.Name)
		}
		if batches != sc.TotalBatches() {
			t.Errorf("%s: %d batches, want %d", sc.Name, batches, sc.TotalBatches())
		}
		if nodes == 0 || edges == 0 {
			t.Errorf("%s: empty stream (%d nodes, %d edges)", sc.Name, nodes, edges)
		}
	}
}

func TestScenarioRepeatExtendsStream(t *testing.T) {
	sc := ScenarioByName("skew")
	seen := map[pg.ID]bool{}
	batches := 0
	var maxNode pg.ID
	src := sc.StreamN(3, 2)
	for b := src.Next(); b != nil; b = src.Next() {
		batches++
		for i := range b.Nodes {
			id := b.Nodes[i].ID
			if seen[id] {
				t.Fatalf("node ID %d generated twice", id)
			}
			seen[id] = true
			if id <= maxNode {
				t.Fatalf("node IDs not increasing: %d after %d", id, maxNode)
			}
			maxNode = id
		}
	}
	if want := 2 * sc.TotalBatches(); batches != want {
		t.Errorf("repeat=2 gave %d batches, want %d", batches, want)
	}
}

// Gradual drift: ramped types are absent in the base phase, rare at the
// start of their ramp phase, and common at its end.
func TestScenarioGradualDrift(t *testing.T) {
	sc := ScenarioByName("gradual-drift")
	src := sc.Stream(1)
	countSessions := func(b *pg.Batch) int {
		n := 0
		for i := range b.Nodes {
			for _, l := range b.Nodes[i].Labels {
				if l == "Session" {
					n++
				}
			}
		}
		return n
	}
	// Phase 1: 4 batches, no sessions.
	for i := 0; i < 4; i++ {
		if n := countSessions(src.Next()); n != 0 {
			t.Fatalf("base phase batch %d has %d Session nodes", i, n)
		}
	}
	// Phase 2: 6 batches, ramping in.
	first := countSessions(src.Next())
	var last int
	for i := 1; i < 6; i++ {
		last = countSessions(src.Next())
	}
	if first == 0 || last == 0 {
		t.Fatalf("ramp phase produced no Session nodes (first %d, last %d)", first, last)
	}
	if first >= last {
		t.Errorf("ramp not gradual: first batch %d sessions, last batch %d", first, last)
	}
}

// Abrupt drift: a type absent in phase 1 arrives at full weight in phase 2.
func TestScenarioAbruptDrift(t *testing.T) {
	sc := ScenarioByName("abrupt-drift")
	src := sc.Stream(1)
	count := func(b *pg.Batch, label string) int {
		n := 0
		for i := range b.Nodes {
			for _, l := range b.Nodes[i].Labels {
				if l == label {
					n++
				}
			}
		}
		return n
	}
	for i := 0; i < 4; i++ {
		if n := count(src.Next(), "Session"); n != 0 {
			t.Fatalf("phase 1 batch %d has %d Session nodes", i, n)
		}
	}
	if n := count(src.Next(), "Session"); n < 50 {
		t.Errorf("cutover batch has only %d Session nodes, want an abrupt arrival", n)
	}
}

// Supernodes: the hub phase concentrates in-degree far beyond the mean.
func TestScenarioSupernodes(t *testing.T) {
	sc := ScenarioByName("supernodes")
	src := sc.Stream(1)
	inDeg := map[pg.ID]int{}
	edges := 0
	batch := 0
	for b := src.Next(); b != nil; b = src.Next() {
		batch++
		if batch <= 7 { // only the final black-holes phase
			continue
		}
		for i := range b.Edges {
			inDeg[b.Edges[i].Dst]++
			edges++
		}
	}
	if edges == 0 {
		t.Fatal("no edges in the final phase")
	}
	max := 0
	for _, d := range inDeg {
		if d > max {
			max = d
		}
	}
	mean := float64(edges) / float64(len(inDeg))
	if float64(max) < 20*mean {
		t.Errorf("max in-degree %d vs mean %.1f — supernodes not concentrating", max, mean)
	}
}

// The near-θ profile's property sets must sit exactly where the scenario
// advertises relative to the merge boundary.
func TestNearThetaJaccard(t *testing.T) {
	p := nearThetaProfile()
	sets := map[string]map[string]bool{}
	for i := range p.NodeTypes {
		nt := &p.NodeTypes[i]
		s := map[string]bool{}
		for _, ps := range nt.Props {
			s[ps.Key] = true
		}
		sets[nt.Name] = s
	}
	jaccard := func(a, b map[string]bool) float64 {
		inter := 0
		for k := range a {
			if b[k] {
				inter++
			}
		}
		return float64(inter) / float64(len(a)+len(b)-inter)
	}
	hub := sets["Hub"]
	for _, tc := range []struct {
		name string
		want float64
	}{
		{"AboveTheta", 18.0 / 19.0},
		{"AtTheta", 18.0 / 20.0},
		{"BelowTheta", 17.0 / 21.0},
	} {
		if got := jaccard(hub, sets[tc.name]); got != tc.want {
			t.Errorf("J(Hub, %s) = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Variants must be unlabeled or label matching would bypass θ.
	for _, name := range []string{"AboveTheta", "AtTheta", "BelowTheta"} {
		for i := range p.NodeTypes {
			if p.NodeTypes[i].Name == name && len(p.NodeTypes[i].Labels) != 0 {
				t.Errorf("%s must be unlabeled", name)
			}
		}
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	for _, sc := range Scenarios() {
		var buf bytes.Buffer
		if err := WriteScenarioJSON(&buf, sc); err != nil {
			t.Fatalf("%s: encode: %v", sc.Name, err)
		}
		first := buf.String()
		got, err := ReadScenarioJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: decode: %v", sc.Name, err)
		}
		if !reflect.DeepEqual(got.Phases, sc.Phases) {
			t.Errorf("%s: phases changed across round trip", sc.Name)
		}
		if !reflect.DeepEqual(got.Profile, sc.Profile) {
			t.Errorf("%s: profile changed across round trip", sc.Name)
		}
		var buf2 bytes.Buffer
		if err := WriteScenarioJSON(&buf2, got); err != nil {
			t.Fatalf("%s: re-encode: %v", sc.Name, err)
		}
		if buf2.String() != first {
			t.Errorf("%s: encoding not stable across a round trip", sc.Name)
		}
		// The stream must be identical too.
		h1, _, _, _ := HashStream(sc.Stream(7))
		h2, _, _, _ := HashStream(got.Stream(7))
		if h1 != h2 {
			t.Errorf("%s: round-tripped scenario streams differently", sc.Name)
		}
	}
}

// TestScenarioHugeWeightStreams: a scenario file is untrusted input, and
// Validate bounds no weight, so a node type weighted 1e308 — whose product
// with the batch size overflows — must still stream to its end, with every
// batch at its node count.
func TestScenarioHugeWeightStreams(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteScenarioJSON(&buf, ScenarioByName("steady")); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	doc["profile"].(map[string]any)["nodeTypes"].([]any)[0].(map[string]any)["weight"] = 1e308
	evil, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ReadScenarioJSON(bytes.NewReader(evil))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() {
		_, _, nodes, _ := HashStream(sc.Stream(1))
		done <- nodes
	}()
	select {
	case nodes := <-done:
		if want := sc.TotalBatches() * sc.BatchNodes; nodes != want {
			t.Errorf("streamed %d nodes, want %d", nodes, want)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("a scenario with a 1e308 weight did not stream within 20s")
	}
}

func TestReadScenarioJSONErrors(t *testing.T) {
	cases := map[string]string{
		"unknown field":      `{"name":"x","dataset":"LDBC","bogus":1,"phases":[{"batches":1}]}`,
		"no name":            `{"dataset":"LDBC","phases":[{"batches":1}]}`,
		"no phases":          `{"name":"x","dataset":"LDBC"}`,
		"no blueprint":       `{"name":"x","phases":[{"batches":1}]}`,
		"both blueprints":    `{"name":"x","dataset":"LDBC","profile":{"name":"p","nodeTypes":[{"name":"A"}]},"phases":[{"batches":1}]}`,
		"unknown dataset":    `{"name":"x","dataset":"NOPE","phases":[{"batches":1}]}`,
		"zero batches":       `{"name":"x","dataset":"LDBC","phases":[{"batches":0}]}`,
		"negative skew":      `{"name":"x","dataset":"LDBC","phases":[{"batches":1,"skew":-1}]}`,
		"rate out of range":  `{"name":"x","dataset":"LDBC","phases":[{"batches":1,"propNoise":1.5}]}`,
		"unknown node type":  `{"name":"x","dataset":"LDBC","phases":[{"batches":1,"activeNodeTypes":["Nope"]}]}`,
		"inactive ramp type": `{"name":"x","dataset":"LDBC","phases":[{"batches":1,"activeNodeTypes":["Person"],"rampIn":["Forum"]}]}`,
		"bad profile":        `{"name":"x","profile":{"name":"p"},"phases":[{"batches":1}]}`,
		"not json":           `{{{`,
	}
	for name, in := range cases {
		if _, err := ReadScenarioJSON(bytes.NewReader([]byte(in))); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}
