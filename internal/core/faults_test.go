package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pghive/internal/pg"
	"pghive/internal/schema"
	"pghive/internal/serialize"
)

// renderDef serializes a finalized schema both ways the CLI can emit it —
// JSON and PG-Schema DDL — so equality checks are on the actual output
// bytes, not on Go-level structural equality.
func renderDef(t *testing.T, def *schema.Def) (jsonBytes, ddlBytes []byte) {
	t.Helper()
	j, err := json.Marshal(def)
	if err != nil {
		t.Fatalf("marshal def: %v", err)
	}
	var ddl bytes.Buffer
	if err := serialize.WritePGSchema(&ddl, def, "g", serialize.Strict); err != nil {
		t.Fatalf("render DDL: %v", err)
	}
	return j, ddl.Bytes()
}

func faultFreeBatches(t testing.TB, nodes, batches int) []*pg.Batch {
	g := engineGraph(t, nodes)
	return g.SplitRandom(batches, 11)
}

// noSleep strips real latency out of retry backoff in tests.
func noSleep(time.Duration) {}

// TestDiscoverFTQuarantinesCorrupt: poisoned batches are skipped — the run
// completes, every batch is either extracted or quarantined with a reason,
// and the quarantine list is identical at every pipeline depth.
func TestDiscoverFTQuarantinesCorrupt(t *testing.T) {
	batches := faultFreeBatches(t, 300, 8)
	profile := pg.FaultProfile{CorruptRate: 0.3, TruncateRate: 0.2, Seed: 5}
	var wantSkipped []SkipReport
	for i, depth := range []int{1, 2, 4} {
		cfg := DefaultConfig()
		cfg.PipelineDepth = depth
		src := pg.NewFaultSource(pg.AsErrSource(pg.NewSliceSource(batches...)), profile)
		res, err := Run(src, cfg, RunOptions{})
		if err != nil {
			t.Fatalf("depth=%d: %v", depth, err)
		}
		if len(res.Skipped) == 0 {
			t.Fatal("corrupt rate 0.3+0.2 over 8 batches quarantined nothing")
		}
		if len(res.Skipped)+len(res.Reports) != len(batches) {
			t.Errorf("depth=%d: %d skipped + %d extracted != %d batches", depth, len(res.Skipped), len(res.Reports), len(batches))
		}
		for _, s := range res.Skipped {
			if s.Reason == "" || s.Seq < 0 || s.Seq >= len(batches) {
				t.Errorf("depth=%d: malformed skip report %+v", depth, s)
			}
		}
		if i == 0 {
			wantSkipped = res.Skipped
		} else if len(res.Skipped) != len(wantSkipped) {
			t.Errorf("depth=%d quarantined %d batches, serial run %d", depth, len(res.Skipped), len(wantSkipped))
		}
	}
}

// TestDrainFTTransientBudget: an endlessly transient source exhausts the
// per-slot budget of DefaultMaxTransient consecutive faults instead of
// hanging.
func TestDrainFTTransientBudget(t *testing.T) {
	pulls := 0
	always := errSourceFunc(func() (*pg.Batch, error) {
		pulls++
		return nil, &pg.TransientError{}
	})
	p := NewPipeline(DefaultConfig())
	_, err := p.drainFT(always, nil, resumeState{})
	if err == nil || !pg.IsTransient(err) {
		t.Fatalf("want transient-budget error, got %v", err)
	}
	if pulls != DefaultMaxTransient {
		t.Errorf("gave up after %d pulls, want DefaultMaxTransient = %d", pulls, DefaultMaxTransient)
	}
}

// errSourceFunc adapts a function to pg.ErrSource for in-test fakes.
type errSourceFunc func() (*pg.Batch, error)

func (f errSourceFunc) Next() (*pg.Batch, error) { return f() }

// TestCrashResumeWithCorruption: crash/resume composes with quarantine —
// the resumed run inherits the checkpointed skip list and the final
// quarantine set matches an uninterrupted faulty run's. The same Run call
// resumes both run shapes: a single pipeline, and a fleet under Shards 3.
func TestCrashResumeWithCorruption(t *testing.T) {
	batches := faultFreeBatches(t, 300, 8)
	profile := pg.FaultProfile{CorruptRate: 0.3, Seed: 9}
	for _, shards := range []int{0, 3} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		uninterrupted, err := Run(pg.NewFaultSource(pg.AsErrSource(pg.NewSliceSource(batches...)), profile), cfg, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := renderDef(t, uninterrupted.Def)

		ck := FileCheckpointer{Path: filepath.Join(t.TempDir(), "run.ck")}
		crashProfile := profile
		crashProfile.FailAfter = 3 // dies after 3 pulled batches (delivered or quarantined)
		crash := pg.NewFaultSource(pg.AsErrSource(pg.NewSliceSource(batches...)), crashProfile)
		if _, err := Run(crash, cfg, RunOptions{Checkpoint: ck}); !errors.Is(err, pg.ErrPermanentFault) {
			t.Fatalf("shards=%d: want permanent fault, got %v", shards, err)
		}

		state, ok, err := ck.Load()
		if err != nil || !ok {
			t.Fatalf("shards=%d: no checkpoint after crash: ok=%t err=%v", shards, ok, err)
		}
		replay := pg.NewFaultSource(pg.AsErrSource(pg.NewSliceSource(batches...)), profile)
		res, err := Run(replay, cfg, RunOptions{Checkpoint: ck, Resume: state})
		if err != nil {
			t.Fatalf("shards=%d: resume: %v", shards, err)
		}
		gotJSON, _ := renderDef(t, res.Def)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("shards=%d: resumed faulty run diverges from uninterrupted faulty run\nwant %s\ngot  %s", shards, wantJSON, gotJSON)
		}
		if len(res.Skipped) != len(uninterrupted.Skipped) {
			t.Errorf("shards=%d: resumed run skipped %d batches, uninterrupted %d", shards, len(res.Skipped), len(uninterrupted.Skipped))
		}
	}
}

// TestResumeRejectsConfigMismatch: a checkpoint written under one
// configuration must refuse to resume under another.
func TestResumeRejectsConfigMismatch(t *testing.T) {
	batches := faultFreeBatches(t, 100, 3)
	cfg := DefaultConfig()
	ck := &statesCheckpointer{}
	if _, err := Run(pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, RunOptions{Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	state := ck.states[len(ck.states)-1]

	other := cfg
	other.Theta = 0.5
	if _, err := DecodeCheckpointSchemas(state, other); err == nil {
		t.Error("resume under a different Theta succeeded, want fingerprint error")
	}
	// Execution-only knobs may differ.
	deeper := cfg
	deeper.PipelineDepth = 8
	if _, err := DecodeCheckpointSchemas(state, deeper); err != nil {
		t.Errorf("resume under different PipelineDepth failed: %v", err)
	}
}

// TestPipelineCheckpointRoundTrip: with label alignment on, a run resumed
// through Run over the whole stream from any checkpoint of an
// uninterrupted run gives its bytes and reports, at depth 1 and 4. The
// stream's label variants arrive on both sides of every checkpoint and
// every batch trains new label-set tokens, so the resumed run must rebuild
// the aligner and the embedding session from its resume window: the
// checkpoint holds neither.
func TestPipelineCheckpointRoundTrip(t *testing.T) {
	batches := vocabStream(true)
	for _, depth := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.PipelineDepth = depth
		cfg.AlignLabels = true
		ck := &statesCheckpointer{}
		full, err := Run(pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, RunOptions{Checkpoint: ck})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(nodeTypeNames(full.Def)); n != 40 || len(ck.states) != len(batches) {
			t.Fatalf("depth=%d: %d node types and %d checkpoints, want 40 (every variant aligned) and %d", depth, n, len(ck.states), len(batches))
		}
		wantJSON, wantDDL := renderDef(t, full.Def)
		for i, state := range ck.states {
			res, err := Run(pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, RunOptions{Resume: state})
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, gotDDL := renderDef(t, res.Def)
			if !bytes.Equal(gotJSON, wantJSON) || !bytes.Equal(gotDDL, wantDDL) {
				t.Errorf("depth=%d: resumed after batch %d: schema diverges\nwant %s\ngot  %s", depth, i+1, wantJSON, gotJSON)
			}
			if got, want := untimed(res.Reports), untimed(full.Reports); !reflect.DeepEqual(got, want) {
				t.Errorf("depth=%d: resumed after batch %d: reports diverge\nwant %+v\ngot  %+v", depth, i+1, want, got)
			}
		}
	}
}

// TestFileCheckpointerRejectsFlippedBytes: a saved checkpoint file loads
// back as exactly the saved state, and flipping any one of its bytes —
// payload or CRC-32C trailer — or cutting it short makes Load refuse the
// file with an error that names it, rather than hand a corrupt state to
// the decoder.
func TestFileCheckpointerRejectsFlippedBytes(t *testing.T) {
	cfg := DefaultConfig()
	saved := &statesCheckpointer{}
	if _, err := Run(pg.AsErrSource(pg.NewSliceSource(faultFreeBatches(t, 40, 2)[0])), cfg, RunOptions{Checkpoint: saved}); err != nil {
		t.Fatal(err)
	}
	state := saved.states[0]

	ck := FileCheckpointer{Path: filepath.Join(t.TempDir(), "run.ck")}
	if err := ck.Save(state); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ck.Path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temporary file left behind: %v", err)
	}
	got, ok, err := ck.Load()
	if err != nil || !ok || !bytes.Equal(got, state) {
		t.Fatalf("Load = %d bytes, ok=%t, err=%v; want the %d saved bytes", len(got), ok, err, len(state))
	}
	if _, err := DecodeCheckpointSchemas(got, cfg); err != nil {
		t.Fatalf("loaded state does not resume: %v", err)
	}

	file, err := os.ReadFile(ck.Path)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(what string, data []byte) {
		t.Helper()
		if err := os.WriteFile(ck.Path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ck.Load(); err == nil || !strings.Contains(err.Error(), ck.Path) {
			t.Fatalf("%s: Load error %v, want a refusal naming %s", what, err, ck.Path)
		}
	}
	for i := range file {
		flipped := bytes.Clone(file)
		flipped[i] ^= 0xff
		refused(fmt.Sprintf("byte %d of %d flipped", i, len(file)), flipped)
	}
	refused("last byte cut", file[:len(file)-1])
	refused("empty file", nil)
}

// TestResumeRejectsRetiredMagics: a checkpoint under any retired magic,
// PGCK1 through PGCK13, is refused through Run with an error naming the
// checkpoint — at one and at two shards, even with a valid body behind
// the magic — rather than misparsed under today's layout.
func TestResumeRejectsRetiredMagics(t *testing.T) {
	batches := faultFreeBatches(t, 100, 2)
	for _, shards := range []int{1, 2} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		ck := &statesCheckpointer{}
		if _, err := Run(pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, RunOptions{Checkpoint: ck}); err != nil {
			t.Fatal(err)
		}
		body := ck.states[len(ck.states)-1][len(checkpointMagic):]
		for v := 1; v <= 13; v++ {
			stale := append([]byte(fmt.Sprintf("PGCK%d", v)), body...)
			_, err := Run(pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, RunOptions{Resume: stale})
			if err == nil || !strings.Contains(err.Error(), "checkpoint") {
				t.Errorf("shards=%d: resuming a PGCK%d checkpoint: err = %v, want a refusal naming the checkpoint", shards, v, err)
			}
		}
	}
}

// statesCheckpointer keeps every state it was handed, in order.
type statesCheckpointer struct{ states [][]byte }

func (s *statesCheckpointer) Save(state []byte) error {
	s.states = append(s.states, append([]byte(nil), state...))
	return nil
}

// FuzzResumePipeline: arbitrary checkpoint bytes must be rejected cleanly
// or be a checkpoint of one run shape, single pipeline or two shards, that
// decodes, resumes through Run and — for a single pipeline — checkpoints
// again into a state that resumes. The seeds are real mid-run checkpoints
// of both shapes, with types, sketched evidence and an epoch clock holding
// a drift epoch Def, quarantines and tallies.
func FuzzResumePipeline(f *testing.F) {
	cfg := DefaultConfig()
	cfg.MemBudgetBytes = 1 << 20
	cfg.DriftPolicy = DriftQuarantine
	cfg.EpochInterval = 2
	// A stable batch after the drifted ones makes the fleet save again, so
	// its checkpoint records the router's quarantines too.
	stream := driftStream(4, 3)
	stream = append(stream, stream[0])
	for _, shards := range []int{1, 2} {
		cfg.Shards = shards
		ck := &statesCheckpointer{}
		if _, err := Run(pg.AsErrSource(pg.NewSliceSource(stream...)), cfg, RunOptions{Checkpoint: ck}); err != nil {
			f.Fatal(err)
		}
		f.Add(ck.states[len(ck.states)-2])
	}
	f.Add([]byte(checkpointMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, shards := range []int{1, 2} {
			cfg := cfg
			cfg.Shards = shards
			if _, err := DecodeCheckpointSchemas(data, cfg); err != nil {
				continue
			}
			if _, err := Run(pg.AsErrSource(pg.NewSliceSource()), cfg, RunOptions{Resume: data}); err != nil {
				t.Fatalf("shards=%d: decoded checkpoint does not resume: %v", shards, err)
			}
			if shards > 1 {
				continue
			}
			p := NewPipeline(cfg)
			from, _, err := restore(data, cfg.withDefaults(), []*Pipeline{p}, p.clock)
			if err != nil {
				t.Fatalf("decoded checkpoint does not restore: %v", err)
			}
			ck := &statesCheckpointer{}
			if _, err := p.drainFT(pg.AsErrSource(pg.NewSliceSource(stream[0])), ck, resumeState{skipped: from.skipped}); err != nil || len(ck.states) != 1 {
				t.Fatalf("restored pipeline does not checkpoint: %d states, err %v", len(ck.states), err)
			}
			if _, err := Run(pg.AsErrSource(pg.NewSliceSource()), cfg, RunOptions{Resume: ck.states[0]}); err != nil {
				t.Fatalf("re-encoded checkpoint does not resume: %v", err)
			}
		}
	})
}

// TestResumePreallocCapped: the counts in a checkpoint are untrusted, so a
// section claiming 2^24 batch reports must fail at end of input after
// preallocating at most maxPrealloc of them, not the ~2.8 GB it claims.
func TestResumePreallocCapped(t *testing.T) {
	cfg := DefaultConfig()
	var sec bytes.Buffer
	w := pg.NewWireWriter(&sec)
	w.Uvarint(0)          // slots
	w.Uvarint(maxReports) // report count, and no reports follow
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	clock, err := encodeClock(nil)
	if err != nil {
		t.Fatal(err)
	}
	ck := &statesCheckpointer{}
	if err := writeCheckpoint(ck, cfg.withDefaults().fingerprint(), 0, nil, clock, [][]byte{sec.Bytes()}); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := DecodeCheckpointSchemas(ck.states[0], cfg); err == nil {
		t.Fatal("checkpoint without its reports resumed")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
		t.Errorf("truncated checkpoint allocated %d bytes before failing, want at most 64 MiB", got)
	}
}
