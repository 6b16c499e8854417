package core

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"pghive/internal/pg"
	"pghive/internal/schema"
)

// engineGraph builds a deterministic multi-type graph large enough that a
// random split yields meaty batches: labeled archetypes, a multi-label
// type, unlabeled nodes, and several edge patterns.
func engineGraph(t testing.TB, n int) *pg.Graph {
	t.Helper()
	g := pg.NewGraph()
	rng := rand.New(rand.NewSource(42))
	var people, orgs, posts []pg.ID
	for i := 0; i < n; i++ {
		switch i % 5 {
		case 0:
			props := pg.Properties{"name": pg.Str("p"), "age": pg.Int(int64(20 + i%50))}
			if rng.Intn(3) == 0 {
				props["email"] = pg.Str("e@x")
			}
			people = append(people, g.AddNode([]string{"Person"}, props))
		case 1:
			orgs = append(orgs, g.AddNode([]string{"Organization"}, pg.Properties{"name": pg.Str("o"), "vat": pg.Str("v")}))
		case 2:
			posts = append(posts, g.AddNode([]string{"Post"}, pg.Properties{"content": pg.Str("c"), "created": pg.ParseValue("01/02/2020")}))
		case 3:
			people = append(people, g.AddNode([]string{"Admin", "Person"}, pg.Properties{"name": pg.Str("a"), "age": pg.Int(30), "level": pg.Int(int64(i % 4))}))
		default:
			g.AddNode(nil, pg.Properties{"sensor": pg.Str("s"), "reading": pg.Float(1.5)})
		}
	}
	addEdge := func(labels []string, src, dst pg.ID, props pg.Properties) {
		if _, err := g.AddEdge(labels, src, dst, props); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range people {
		addEdge([]string{"KNOWS"}, p, people[(i+1)%len(people)], pg.Properties{"since": pg.Int(int64(2000 + i%20))})
		if len(orgs) > 0 && i%2 == 0 {
			addEdge([]string{"WORKS_AT"}, p, orgs[i%len(orgs)], nil)
		}
		if len(posts) > 0 && i%3 == 0 {
			addEdge([]string{"LIKES"}, p, posts[i%len(posts)], nil)
		}
	}
	return g
}

func discoverSplit(g *pg.Graph, cfg Config, batches, splitSeed int64) *Result {
	return Discover(pg.NewSliceSource(g.SplitRandom(int(batches), splitSeed)...), cfg)
}

func defsEqual(t *testing.T, label string, want, got *schema.Def) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(got)
	t.Errorf("%s: schemas differ\nserial:    %s\npipelined: %s", label, wj, gj)
}

// TestOverlappedMatchesSerialAligned repeats the equality check with label
// alignment enabled: the aligner mutates across batches, so this guards the
// engine's claim that preprocess stays serialized in batch order.
func TestOverlappedMatchesSerialAligned(t *testing.T) {
	g := pg.NewGraph()
	for i := 0; i < 60; i++ {
		label := "Organization"
		if i%2 == 1 {
			label = "Organisation"
		}
		g.AddNode([]string{label}, pg.Properties{"name": pg.Str("x"), "vat": pg.Str("y")})
	}
	cfg := DefaultConfig()
	cfg.AlignLabels = true
	cfg.PipelineDepth = 1
	serial := discoverSplit(g, cfg, 4, 5)
	cfg.PipelineDepth = 4
	piped := discoverSplit(g, cfg, 4, 5)
	defsEqual(t, "aligned", serial.Def, piped.Def)
	if len(piped.Def.Nodes) != 1 {
		t.Errorf("alignment under the engine found %d types, want 1", len(piped.Def.Nodes))
	}
}

func TestPipelineDepthDefaultApplied(t *testing.T) {
	if got := NewPipeline(DefaultConfig()).Config().PipelineDepth; got != DefaultPipelineDepth {
		t.Errorf("default PipelineDepth = %d, want %d", got, DefaultPipelineDepth)
	}
	cfg := DefaultConfig()
	cfg.PipelineDepth = 1
	if got := NewPipeline(cfg).Config().PipelineDepth; got != 1 {
		t.Errorf("explicit serial PipelineDepth = %d, want 1", got)
	}
}

// TestDrainSingleBatch exercises the engine with exactly one batch (a whole
// graph's snapshot) and with an exhausted source.
func TestDrainSingleBatch(t *testing.T) {
	g := engineGraph(t, 50)
	cfg := DefaultConfig()
	cfg.PipelineDepth = 4
	res := Discover(pg.NewSliceSource(g.Snapshot()), cfg)
	if len(res.Def.Nodes) == 0 || len(res.Reports) != 1 {
		t.Fatalf("single-batch engine run: %d types, %d reports", len(res.Def.Nodes), len(res.Reports))
	}
	p := NewPipeline(cfg)
	p.drainFT(pg.AsErrSource(pg.NewSliceSource()), nil, resumeState{})
	if len(p.Reports()) != 0 {
		t.Error("draining an empty source should process nothing")
	}
}

// TestProcessBatchInterchangeableWithDrain: feeding batches one at a time
// through ProcessBatch equals a serial drain over the same source.
func TestProcessBatchInterchangeableWithDrain(t *testing.T) {
	g := engineGraph(t, 200)
	batches := g.SplitRandom(4, 9)
	cfg := DefaultConfig()
	cfg.PipelineDepth = 1

	byHand := NewPipeline(cfg)
	for _, b := range batches {
		byHand.ProcessBatch(b)
	}
	drained := NewPipeline(cfg)
	drained.drainFT(pg.AsErrSource(pg.NewSliceSource(batches...)), nil, resumeState{})

	defsEqual(t, "processbatch-vs-drain", byHand.Finalize(), drained.Finalize())
}
