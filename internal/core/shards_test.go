package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"pghive/internal/pg"
	"pghive/internal/schema"
)

// shardDatasets builds the three equivalence-suite graphs: the mixed
// engine graph (labeled + multi-label + unlabeled elements), a label-pure
// graph, and a property-heavy graph with overlapping property sets.
func shardDatasets(t testing.TB) map[string]*pg.Graph {
	t.Helper()
	pure := pg.NewGraph()
	var users, items []pg.ID
	for i := 0; i < 240; i++ {
		switch i % 3 {
		case 0:
			users = append(users, pure.AddNode([]string{"User"}, pg.Properties{
				"name": pg.Str("u"), "karma": pg.Int(int64(i)),
			}))
		case 1:
			items = append(items, pure.AddNode([]string{"Item"}, pg.Properties{
				"sku": pg.Str("s"), "price": pg.Float(float64(i) / 3),
			}))
		default:
			pure.AddNode([]string{"Review"}, pg.Properties{
				"stars": pg.Int(int64(i % 5)), "text": pg.Str("t"),
			})
		}
	}
	for i, u := range users {
		if _, err := pure.AddEdge([]string{"BOUGHT"}, u, items[i%len(items)], pg.Properties{
			"qty": pg.Int(int64(1 + i%3)),
		}); err != nil {
			t.Fatal(err)
		}
	}

	heavy := pg.NewGraph()
	for i := 0; i < 200; i++ {
		props := pg.Properties{"id": pg.Int(int64(i))}
		for p := 0; p < 4+i%3; p++ {
			props[fmt.Sprintf("f%d", p)] = pg.Float(float64(p))
		}
		label := "Alpha"
		if i%2 == 1 {
			label = "Beta"
		}
		heavy.AddNode([]string{label}, props)
	}

	return map[string]*pg.Graph{
		"engine": engineGraph(t, 300),
		"pure":   pure,
		"heavy":  heavy,
	}
}

// TestDiscoverHonoursShards: Discover runs the sharded fleet when
// Config.Shards > 1 — its bytes are the sharded run's, on an input whose
// sharded and serial schemas differ.
func TestDiscoverHonoursShards(t *testing.T) {
	batches := faultFreeBatches(t, 300, 6)
	cfg := DefaultConfig()
	cfg.Shards = 3
	serial := cfg
	serial.Shards = 0
	sharded, err := Run(pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantDDL := renderDef(t, sharded.Def)
	if serialJSON, _ := renderDef(t, Discover(pg.NewSliceSource(batches...), serial).Def); bytes.Equal(serialJSON, wantJSON) {
		t.Fatal("the sharded and serial schemas agree on this input, so it cannot tell them apart")
	}
	gotJSON, gotDDL := renderDef(t, Discover(pg.NewSliceSource(batches...), cfg).Def)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("Discover with Shards=3: JSON diverges from the sharded run\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
	if !bytes.Equal(wantDDL, gotDDL) {
		t.Errorf("Discover with Shards=3: DDL diverges from the sharded run")
	}
}

// TestShardedEquivalence is the merge-equivalence suite: on three datasets,
// for both LSH methods and N ∈ {1, 2, 4} shards, the sharded run's labeled
// types match the serial run's (same label sets, same instance counts, same
// property data types and constraints: schema.EquivExact) and the total
// evidence mass per kind is conserved (schema.EquivLabeled). N = 1 is
// byte-identical (TestConfigMatrix);
// N > 1 is allowed to differ only in abstract-type composition, which the
// projection deliberately collapses (see DESIGN.md §11 for why).
func TestShardedEquivalence(t *testing.T) {
	for name, g := range shardDatasets(t) {
		batches := g.SplitRandom(6, 11)
		for _, m := range []Method{MethodELSH, MethodMinHash} {
			cfg := DefaultConfig()
			cfg.Method = m
			serial := Discover(pg.NewSliceSource(batches...), cfg)
			for _, shards := range []int{1, 2, 4} {
				cfg := cfg
				cfg.Shards = shards
				res := Discover(pg.NewSliceSource(batches...), cfg)
				for _, level := range []schema.EquivalenceLevel{schema.EquivExact, schema.EquivLabeled} {
					if diff := schema.EquivalenceDiff(serial.Def, res.Def, level); diff != "" {
						t.Errorf("%s/%v shards=%d: diverges from serial at level %v: %s", name, m, shards, level, diff)
					}
				}
			}
		}
	}
}

// TestShardedDeterministic: a sharded run is a pure function of
// (input, Seed, Shards) — two identical runs produce byte-identical output,
// and the per-report shard stamps partition the batches.
func TestShardedDeterministic(t *testing.T) {
	batches := faultFreeBatches(t, 300, 6)
	cfg := DefaultConfig()
	cfg.Shards = 3
	a := Discover(pg.NewSliceSource(batches...), cfg)
	b := Discover(pg.NewSliceSource(batches...), cfg)
	aJSON, aDDL := renderDef(t, a.Def)
	bJSON, bDDL := renderDef(t, b.Def)
	if !bytes.Equal(aJSON, bJSON) {
		t.Errorf("sharded run not deterministic\nfirst:  %s\nsecond: %s", aJSON, bJSON)
	}
	if !bytes.Equal(aDDL, bDDL) {
		t.Error("sharded DDL not deterministic")
	}
	seen := map[int]int{}
	for _, r := range a.Reports {
		if r.Shard < 0 || r.Shard >= cfg.Shards {
			t.Fatalf("report carries shard %d outside [0,%d)", r.Shard, cfg.Shards)
		}
		seen[r.Shard] += r.Nodes + r.Edges
	}
	if len(seen) < 2 {
		t.Errorf("3-shard run used only shards %v", seen)
	}
}

// TestShardedQuarantine: the router quarantines poisoned batches exactly
// like the single-pipeline puller — the quarantine list depends only on the
// fault profile, not on the shard count.
func TestShardedQuarantine(t *testing.T) {
	batches := faultFreeBatches(t, 300, 8)
	profile := pg.FaultProfile{CorruptRate: 0.3, TruncateRate: 0.2, Seed: 5}
	var want []SkipReport
	for i, shards := range []int{1, 2, 4} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		src := pg.NewFaultSource(pg.AsErrSource(pg.NewSliceSource(batches...)), profile)
		res, err := Run(src, cfg, RunOptions{})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(res.Skipped) == 0 {
			t.Fatal("corrupt profile quarantined nothing")
		}
		if i == 0 {
			want = res.Skipped
			continue
		}
		if len(res.Skipped) != len(want) {
			t.Fatalf("shards=%d: quarantine list has %d entries, shards=1 had %d", shards, len(res.Skipped), len(want))
		}
		for j := range want {
			if res.Skipped[j] != want[j] {
				t.Errorf("shards=%d: skip %d = %+v, want %+v", shards, j, res.Skipped[j], want[j])
			}
		}
	}
}

// TestShardedResumeRejects: a fleet checkpoint refuses to resume under a
// different shard count, a different configuration, or as a
// single-pipeline checkpoint, and a single-pipeline checkpoint refuses to
// resume as a fleet. (Retired magics: TestResumeRejectsRetiredMagics.)
func TestShardedResumeRejects(t *testing.T) {
	batches := faultFreeBatches(t, 200, 4)
	cfg := DefaultConfig()
	cfg.Shards = 2
	ck := FileCheckpointer{Path: filepath.Join(t.TempDir(), "fleet.ck")}
	crash := pg.NewFaultSource(pg.AsErrSource(pg.NewSliceSource(batches...)),
		pg.FaultProfile{FailAfter: 2, Seed: 1})
	if _, err := Run(crash, cfg, RunOptions{Checkpoint: ck}); !errors.Is(err, pg.ErrPermanentFault) {
		t.Fatalf("want permanent fault, got %v", err)
	}
	state, ok, err := ck.Load()
	if err != nil || !ok {
		t.Fatalf("no container: ok=%t err=%v", ok, err)
	}

	src := func() pg.ErrSource { return pg.AsErrSource(pg.NewSliceSource(batches...)) }

	wrong := cfg
	wrong.Shards = 4
	if _, err := Run(src(), wrong, RunOptions{Resume: state}); err == nil {
		t.Error("resume with wrong shard count succeeded")
	}

	wrong = cfg
	wrong.Theta = 0.5
	if _, err := Run(src(), wrong, RunOptions{Resume: state}); err == nil {
		t.Error("resume with different theta succeeded")
	}

	if _, err := Run(src(), DefaultConfig(), RunOptions{Resume: state}); err == nil {
		t.Error("single-pipeline resume accepted a fleet container")
	}

	// And a plain single-pipeline checkpoint must not resume as a fleet.
	soloCk := FileCheckpointer{Path: filepath.Join(t.TempDir(), "solo.ck")}
	soloCrash := pg.NewFaultSource(pg.AsErrSource(pg.NewSliceSource(batches...)),
		pg.FaultProfile{FailAfter: 2, Seed: 1})
	if _, err := Run(soloCrash, DefaultConfig(), RunOptions{Checkpoint: soloCk}); !errors.Is(err, pg.ErrPermanentFault) {
		t.Fatalf("want permanent fault, got %v", err)
	}
	soloState, _, _ := soloCk.Load()
	if _, err := Run(src(), cfg, RunOptions{Resume: soloState}); err == nil {
		t.Error("fleet resume accepted a single-pipeline checkpoint")
	}
}

// FuzzShardedCheckpoint: arbitrary two-shard checkpoint bytes must be
// rejected cleanly, never crash the decoder, and an accepted input restores
// exactly one section per shard and is refused as a single pipeline. The
// first seed is a fresh fleet's checkpoint with a skip list in its header.
func FuzzShardedCheckpoint(f *testing.F) {
	cfg := DefaultConfig().withDefaults()
	cfg.Shards = 2
	pipes := newPipelines(cfg)
	sections := make([][]byte, len(pipes))
	for i, p := range pipes {
		var err error
		if sections[i], err = p.section(0); err != nil {
			f.Fatal(err)
		}
	}
	clock, err := encodeClock(nil)
	if err != nil {
		f.Fatal(err)
	}
	ck := &statesCheckpointer{}
	if err := writeCheckpoint(ck, cfg.fingerprint(), 3, []SkipReport{{Seq: 1, Reason: "x"}}, clock, sections); err != nil {
		f.Fatal(err)
	}
	if _, err := DecodeCheckpointSchemas(ck.states[0], cfg); err != nil {
		f.Fatalf("seed checkpoint does not decode: %v", err)
	}
	f.Add(ck.states[0])
	f.Add([]byte(checkpointMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		schemas, err := DecodeCheckpointSchemas(data, cfg)
		if err != nil {
			return
		}
		if len(schemas) != cfg.Shards {
			t.Fatalf("accepted checkpoint with %d sections for %d shards", len(schemas), cfg.Shards)
		}
		if _, err := DecodeCheckpointSchemas(data, DefaultConfig()); err == nil {
			t.Fatal("a two-shard checkpoint also decodes as a single pipeline")
		}
	})
}
