package core

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
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

// TestShardedOneShardByteIdentical: Shards ≤ 1 must be exactly Discover —
// the merge path is bypassed and the output bytes match, for both LSH
// methods. This is the CI gate that keeps the sharded entry point a strict
// superset of the serial one.
func TestShardedOneShardByteIdentical(t *testing.T) {
	batches := faultFreeBatches(t, 300, 5)
	for _, m := range []Method{MethodELSH, MethodMinHash} {
		cfg := DefaultConfig()
		cfg.Method = m
		wantJSON, wantDDL := renderDef(t, Discover(pg.NewSliceSource(batches...), cfg).Def)
		for _, shards := range []int{0, 1} {
			cfg := cfg
			cfg.Shards = shards
			gotJSON, gotDDL := renderDef(t, Discover(pg.NewSliceSource(batches...), cfg).Def)
			if !bytes.Equal(wantJSON, gotJSON) {
				t.Errorf("%v shards=%d: JSON diverges from serial\nwant %s\ngot  %s", m, shards, wantJSON, gotJSON)
			}
			if !bytes.Equal(wantDDL, gotDDL) {
				t.Errorf("%v shards=%d: DDL diverges from serial", m, shards)
			}
		}
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

// labeledProjection canonicalizes a finalized schema's labeled types for
// cross-run comparison: label set → instance count and per-property
// (data type, mandatory) pairs. Abstract types are summarized only by their
// total instance count — the clustering partition (and therefore the
// composition of unlabeled clusters) legitimately differs between a serial
// and a sharded run.
func labeledProjection(def *schema.Def) map[string]string {
	proj := map[string]string{}
	abstract := 0
	add := func(kind, name string, labels []string, isAbstract bool, instances int, props []schema.PropertyDef) {
		if isAbstract {
			abstract += instances
			return
		}
		var b strings.Builder
		fmt.Fprintf(&b, "inst=%d", instances)
		sorted := append([]schema.PropertyDef(nil), props...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
		for _, p := range sorted {
			fmt.Fprintf(&b, " %s:%v/mand=%t", p.Key, p.DataType, p.Mandatory)
		}
		key := append([]string(nil), labels...)
		sort.Strings(key)
		proj[kind+":"+strings.Join(key, "|")] = b.String()
	}
	for _, n := range def.Nodes {
		add("node", n.Name, n.Labels, n.Abstract, n.Instances, n.Properties)
	}
	for _, e := range def.Edges {
		add("edge", e.Name, e.Labels, e.Abstract, e.Instances, e.Properties)
	}
	proj["abstract-instances"] = fmt.Sprintf("%d", abstract)
	return proj
}

// totalInstances sums instance counts over every type of the finalized
// schema — exactly-once delivery means a sharded run observes each element
// exactly as often as the serial run does.
func totalInstances(def *schema.Def) (nodes, edges int) {
	for _, n := range def.Nodes {
		nodes += n.Instances
	}
	for _, e := range def.Edges {
		edges += e.Instances
	}
	return
}

// TestShardedEquivalence is the merge-equivalence suite: on three datasets,
// for both LSH methods and N ∈ {1, 2, 4} shards, the sharded run's labeled
// types match the serial run's (same label sets, same instance counts, same
// property data types and constraints) and the total evidence mass is
// conserved. N = 1 is byte-identical (TestShardedOneShardByteIdentical);
// N > 1 is allowed to differ only in abstract-type composition, which the
// projection deliberately collapses (see DESIGN.md §11 for why).
func TestShardedEquivalence(t *testing.T) {
	for name, g := range shardDatasets(t) {
		batches := g.SplitRandom(6, 11)
		for _, m := range []Method{MethodELSH, MethodMinHash} {
			cfg := DefaultConfig()
			cfg.Method = m
			serial := Discover(pg.NewSliceSource(batches...), cfg)
			wantProj := labeledProjection(serial.Def)
			wantNodes, wantEdges := totalInstances(serial.Def)
			for _, shards := range []int{1, 2, 4} {
				cfg := cfg
				cfg.Shards = shards
				res := Discover(pg.NewSliceSource(batches...), cfg)
				gotNodes, gotEdges := totalInstances(res.Def)
				if gotNodes != wantNodes || gotEdges != wantEdges {
					t.Errorf("%s/%v shards=%d: instance mass not conserved: nodes %d→%d edges %d→%d",
						name, m, shards, wantNodes, gotNodes, wantEdges, gotEdges)
				}
				gotProj := labeledProjection(res.Def)
				for key, want := range wantProj {
					if got, ok := gotProj[key]; !ok {
						t.Errorf("%s/%v shards=%d: labeled type %s missing from sharded run", name, m, shards, key)
					} else if got != want {
						t.Errorf("%s/%v shards=%d: %s diverges\nserial:  %s\nsharded: %s", name, m, shards, key, want, got)
					}
				}
				for key := range gotProj {
					if _, ok := wantProj[key]; !ok {
						t.Errorf("%s/%v shards=%d: sharded run invented labeled type %s", name, m, shards, key)
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

// TestShardedFTMatchesSharded: over a fault-free source a sharded Run is
// just Discover — identical output, no quarantine — and a transient-fault
// storm changes nothing.
func TestShardedFTMatchesSharded(t *testing.T) {
	batches := faultFreeBatches(t, 300, 6)
	cfg := DefaultConfig()
	cfg.Shards = 3
	wantJSON, wantDDL := renderDef(t, Discover(pg.NewSliceSource(batches...), cfg).Def)
	for _, transient := range []float64{0, 0.3} {
		var src pg.ErrSource = pg.AsErrSource(pg.NewSliceSource(batches...))
		if transient > 0 {
			src = pg.NewFaultSource(src, pg.FaultProfile{TransientRate: transient, Seed: 77})
		}
		res, err := Run(src, cfg, RunOptions{})
		if err != nil {
			t.Fatalf("transient=%g: %v", transient, err)
		}
		if len(res.Skipped) != 0 {
			t.Errorf("transient=%g: quarantined %d batches", transient, len(res.Skipped))
		}
		gotJSON, gotDDL := renderDef(t, res.Def)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("transient=%g: FT JSON diverges\nwant %s\ngot  %s", transient, wantJSON, gotJSON)
		}
		if !bytes.Equal(wantDDL, gotDDL) {
			t.Errorf("transient=%g: FT DDL diverges", transient)
		}
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

// TestShardedResume is kill-anywhere recovery for the fleet: a sharded run
// crashes at several stream positions, the PGCK6 container restores all
// shards plus the router position, and the resumed run finishes
// byte-identical to an uninterrupted sharded run.
func TestShardedResume(t *testing.T) {
	batches := faultFreeBatches(t, 300, 6)
	cfg := DefaultConfig()
	cfg.Shards = 3
	wantJSON, wantDDL := renderDef(t, Discover(pg.NewSliceSource(batches...), cfg).Def)

	for _, failAfter := range []int{1, 3, 5} {
		ck := FileCheckpointer{Path: filepath.Join(t.TempDir(), "fleet.ck")}
		crash := pg.NewFaultSource(pg.AsErrSource(pg.NewSliceSource(batches...)),
			pg.FaultProfile{FailAfter: failAfter, Seed: 1})
		if _, err := Run(crash, cfg, RunOptions{Checkpoint: ck}); !errors.Is(err, pg.ErrPermanentFault) {
			t.Fatalf("failAfter=%d: want permanent fault, got %v", failAfter, err)
		}
		state, ok, err := ck.Load()
		if err != nil || !ok {
			t.Fatalf("failAfter=%d: no container after crash: ok=%t err=%v", failAfter, ok, err)
		}
		res, err := Run(pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, RunOptions{Checkpoint: ck, Resume: state})
		if err != nil {
			t.Fatalf("failAfter=%d: resume: %v", failAfter, err)
		}
		gotJSON, gotDDL := renderDef(t, res.Def)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("failAfter=%d: resumed JSON diverges\nwant %s\ngot  %s", failAfter, wantJSON, gotJSON)
		}
		if !bytes.Equal(wantDDL, gotDDL) {
			t.Errorf("failAfter=%d: resumed DDL diverges", failAfter)
		}
	}
}

// TestShardedResumeRejects: a PGCK6 container refuses to resume under a
// different shard count, a different configuration, as a single-pipeline
// checkpoint (and vice versa), or from the superseded PGCK4 container
// format.
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

	// A container in the superseded pre-sketch format must be rejected by
	// its magic, not misparsed.
	stale := append([]byte("PGCK4"), state[len(shardCheckpointMagic):]...)
	if _, err := Run(src(), cfg, RunOptions{Resume: stale}); err == nil {
		t.Error("fleet resume accepted a PGCK4 container")
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

// FuzzShardedCheckpoint: arbitrary container bytes must be rejected cleanly,
// never crash the decoder.
func FuzzShardedCheckpoint(f *testing.F) {
	cfg := DefaultConfig().withDefaults()
	cfg.Shards = 2
	var buf bytes.Buffer
	pipes := newShardPipelines(cfg)
	states := make([][]byte, len(pipes))
	for i, p := range pipes {
		var b bytes.Buffer
		if err := p.EncodeCheckpoint(&b, 0, nil); err != nil {
			f.Fatal(err)
		}
		states[i] = b.Bytes()
	}
	clock, err := encodeClock(nil)
	if err != nil {
		f.Fatal(err)
	}
	if err := encodeShardContainer(&buf, cfg, 3, []SkipReport{{Seq: 1, Reason: "x"}}, clock, states); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(shardCheckpointMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		sections, _, _, err := decodeShardContainer(data, cfg, nil)
		if err != nil {
			return
		}
		if len(sections) != cfg.Shards {
			t.Fatalf("accepted container with %d sections for %d shards", len(sections), cfg.Shards)
		}
		for i, sec := range sections {
			if _, _, _, err := ResumePipeline(bytes.NewReader(sec), shardConfig(cfg, i)); err != nil {
				return // a corrupt section is fine as long as it errors
			}
		}
	})
}
