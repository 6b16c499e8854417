package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"runtime"
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

// TestDiscoverFTMatchesDiscover: over a fault-free source, Run is just
// Discover — identical finalized output, no quarantine.
func TestDiscoverFTMatchesDiscover(t *testing.T) {
	batches := faultFreeBatches(t, 300, 5)
	for _, depth := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.PipelineDepth = depth
		want := Discover(pg.NewSliceSource(batches...), cfg)
		got, err := Run(pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, RunOptions{})
		if err != nil {
			t.Fatalf("depth=%d: %v", depth, err)
		}
		if len(got.Skipped) != 0 {
			t.Errorf("depth=%d: fault-free run quarantined %d batches", depth, len(got.Skipped))
		}
		defsEqual(t, "ft-vs-plain", want.Def, got.Def)
	}
}

// TestDiscoverFTTransientIdentity is the acceptance criterion for graceful
// degradation: with well over 10% of pulls failing transiently, discovery
// completes and the finalized schema is byte-identical to the fault-free
// run — at serial and overlapped depths, for both LSH methods, with and
// without a retry/backoff layer in between.
func TestDiscoverFTTransientIdentity(t *testing.T) {
	batches := faultFreeBatches(t, 300, 6)
	for _, m := range []Method{MethodELSH, MethodMinHash} {
		cfg := DefaultConfig()
		cfg.Method = m
		wantJSON, wantDDL := renderDef(t, Discover(pg.NewSliceSource(batches...), cfg).Def)
		for _, depth := range []int{1, 2, 4} {
			for _, withRetry := range []bool{false, true} {
				cfg := cfg
				cfg.PipelineDepth = depth
				var src pg.ErrSource = pg.NewFaultSource(
					pg.AsErrSource(pg.NewSliceSource(batches...)),
					pg.FaultProfile{TransientRate: 0.3, Seed: 77})
				if withRetry {
					src = pg.NewRetrySource(src, pg.RetryPolicy{Sleep: noSleep})
				}
				res, err := Run(src, cfg, RunOptions{})
				if err != nil {
					t.Fatalf("%v depth=%d retry=%t: %v", m, depth, withRetry, err)
				}
				if len(res.Skipped) != 0 {
					t.Errorf("%v depth=%d: transient faults must not quarantine batches, skipped %d", m, depth, len(res.Skipped))
				}
				gotJSON, gotDDL := renderDef(t, res.Def)
				if !bytes.Equal(wantJSON, gotJSON) {
					t.Errorf("%v depth=%d retry=%t: JSON diverges from fault-free run\nwant %s\ngot  %s", m, depth, withRetry, wantJSON, gotJSON)
				}
				if !bytes.Equal(wantDDL, gotDDL) {
					t.Errorf("%v depth=%d retry=%t: DDL diverges from fault-free run", m, depth, withRetry)
				}
			}
		}
	}
}

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

// TestCrashResumeByteIdentical is the tentpole guarantee: kill a
// checkpointing run after k extracted batches, resume from the checkpoint
// file, and the finalized DDL and JSON are byte-identical to an
// uninterrupted run — for a crash before any batch, mid-stream, and after
// the last batch, at serial and overlapped depths.
func TestCrashResumeByteIdentical(t *testing.T) {
	batches := faultFreeBatches(t, 300, 6)
	cfgBase := DefaultConfig()
	wantJSON, wantDDL := renderDef(t, Discover(pg.NewSliceSource(batches...), cfgBase).Def)

	for _, depth := range []int{1, 4} {
		for _, kill := range []int{0, 3, len(batches)} {
			cfg := cfgBase
			cfg.PipelineDepth = depth
			ck := FileCheckpointer{Path: filepath.Join(t.TempDir(), "run.ck")}

			// Phase 1: the run dies after `kill` delivered batches
			// (FailAfter=0 means no fault, so a crash-at-once source
			// stands in for kill=0).
			var crash pg.ErrSource = pg.NewFaultSource(pg.AsErrSource(pg.NewSliceSource(batches...)),
				pg.FaultProfile{FailAfter: kill, Seed: 1})
			if kill == 0 {
				crash = errSourceFunc(func() (*pg.Batch, error) { return nil, pg.ErrPermanentFault })
			}
			if _, err := Run(crash, cfg, RunOptions{Checkpoint: ck}); !errors.Is(err, pg.ErrPermanentFault) {
				t.Fatalf("depth=%d kill=%d: want permanent fault, got %v", depth, kill, err)
			}

			// Phase 2: resume from the last checkpoint over a healthy
			// replay of the same stream.
			state, ok, err := ck.Load()
			if err != nil {
				t.Fatal(err)
			}
			if ok != (kill > 0) {
				t.Fatalf("depth=%d kill=%d: checkpoint exists=%t", depth, kill, ok)
			}
			replay := pg.AsErrSource(pg.NewSliceSource(batches...))
			res, err := Run(replay, cfg, RunOptions{Checkpoint: ck, Resume: state})
			if err != nil {
				t.Fatalf("depth=%d kill=%d: resume: %v", depth, kill, err)
			}

			gotJSON, gotDDL := renderDef(t, res.Def)
			if !bytes.Equal(wantJSON, gotJSON) {
				t.Errorf("depth=%d kill=%d: resumed JSON diverges\nwant %s\ngot  %s", depth, kill, wantJSON, gotJSON)
			}
			if !bytes.Equal(wantDDL, gotDDL) {
				t.Errorf("depth=%d kill=%d: resumed DDL diverges\nwant:\n%s\ngot:\n%s", depth, kill, wantDDL, gotDDL)
			}
			if len(res.Reports) != len(batches) {
				t.Errorf("depth=%d kill=%d: %d reports after resume, want %d", depth, kill, len(res.Reports), len(batches))
			}
		}
	}
}

// TestCrashResumeWithCorruption: crash/resume composes with quarantine —
// the resumed run inherits the checkpointed skip list and the final
// quarantine set matches an uninterrupted faulty run's. The same Run call
// resumes both checkpoint formats: a PGCK7 pipeline checkpoint, and a PGCK8
// fleet container under Shards 3.
func TestCrashResumeWithCorruption(t *testing.T) {
	batches := faultFreeBatches(t, 300, 8)
	profile := pg.FaultProfile{CorruptRate: 0.3, Seed: 9}
	for _, tc := range []struct {
		shards int
		magic  string
	}{{0, checkpointMagic}, {3, shardCheckpointMagic}} {
		cfg := DefaultConfig()
		cfg.Shards = tc.shards
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
			t.Fatalf("shards=%d: want permanent fault, got %v", tc.shards, err)
		}

		state, ok, err := ck.Load()
		if err != nil || !ok {
			t.Fatalf("shards=%d: no checkpoint after crash: ok=%t err=%v", tc.shards, ok, err)
		}
		if !bytes.HasPrefix(state, []byte(tc.magic)) {
			t.Fatalf("shards=%d: checkpoint starts %q, want %s", tc.shards, state[:5], tc.magic)
		}
		replay := pg.NewFaultSource(pg.AsErrSource(pg.NewSliceSource(batches...)), profile)
		res, err := Run(replay, cfg, RunOptions{Checkpoint: ck, Resume: state})
		if err != nil {
			t.Fatalf("shards=%d: resume: %v", tc.shards, err)
		}
		gotJSON, _ := renderDef(t, res.Def)
		if !bytes.Equal(wantJSON, gotJSON) {
			t.Errorf("shards=%d: resumed faulty run diverges from uninterrupted faulty run\nwant %s\ngot  %s", tc.shards, wantJSON, gotJSON)
		}
		if len(res.Skipped) != len(uninterrupted.Skipped) {
			t.Errorf("shards=%d: resumed run skipped %d batches, uninterrupted %d", tc.shards, len(res.Skipped), len(uninterrupted.Skipped))
		}
	}
}

// TestResumeRejectsConfigMismatch: a checkpoint written under one
// configuration must refuse to resume under another.
func TestResumeRejectsConfigMismatch(t *testing.T) {
	batches := faultFreeBatches(t, 100, 3)
	cfg := DefaultConfig()
	p := NewPipeline(cfg)
	if _, err := p.drainFT(pg.AsErrSource(pg.NewSliceSource(batches...)), nil, resumeState{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.EncodeCheckpoint(&buf, len(batches), nil); err != nil {
		t.Fatal(err)
	}

	other := cfg
	other.Theta = 0.5
	if _, _, _, err := ResumePipeline(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Error("resume under a different Theta succeeded, want fingerprint error")
	}
	// Execution-only knobs may differ.
	deeper := cfg
	deeper.PipelineDepth = 8
	if _, _, _, err := ResumePipeline(bytes.NewReader(buf.Bytes()), deeper); err != nil {
		t.Errorf("resume under different PipelineDepth failed: %v", err)
	}
}

// TestPipelineCheckpointRoundTrip: encode a quiescent mid-run pipeline,
// restore it, and both must produce identical output on the remaining
// batches — the unit-level core of the crash/resume property.
func TestPipelineCheckpointRoundTrip(t *testing.T) {
	batches := faultFreeBatches(t, 300, 6)
	cfg := DefaultConfig()
	cfg.PipelineDepth = 1
	cfg.AlignLabels = true

	p := NewPipeline(cfg)
	for _, b := range batches[:3] {
		p.ProcessBatch(b)
	}
	var buf bytes.Buffer
	if err := p.EncodeCheckpoint(&buf, 3, nil); err != nil {
		t.Fatal(err)
	}
	restored, slots, skipped, err := ResumePipeline(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slots != 3 || len(skipped) != 0 {
		t.Fatalf("slots=%d skipped=%d, want 3, 0", slots, len(skipped))
	}
	for _, b := range batches[3:] {
		p.ProcessBatch(b)
		restored.ProcessBatch(b)
	}
	defsEqual(t, "checkpoint-roundtrip", p.Finalize(), restored.Finalize())
}

// statesCheckpointer keeps every state it was handed, in order.
type statesCheckpointer struct{ states [][]byte }

func (s *statesCheckpointer) Save(state []byte) error {
	s.states = append(s.states, append([]byte(nil), state...))
	return nil
}

// FuzzResumePipeline: arbitrary checkpoint bytes must be rejected cleanly or
// restore a pipeline that finalizes and checkpoints again. The seed is a
// real mid-run checkpoint with types, sketched evidence and an epoch clock
// holding a drift epoch Def, quarantines and tallies.
func FuzzResumePipeline(f *testing.F) {
	cfg := DefaultConfig()
	cfg.MemBudgetBytes = 1 << 20
	cfg.DriftPolicy = DriftQuarantine
	cfg.EpochInterval = 2
	ck := &statesCheckpointer{}
	if _, err := Run(pg.AsErrSource(pg.NewSliceSource(driftStream(4, 3)...)), cfg, RunOptions{Checkpoint: ck}); err != nil {
		f.Fatal(err)
	}
	f.Add(ck.states[len(ck.states)-2])
	f.Add([]byte(checkpointMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, slots, _, err := ResumePipeline(bytes.NewReader(data), cfg)
		if err != nil {
			return
		}
		p.Finalize()
		var buf bytes.Buffer
		if err := p.EncodeCheckpoint(&buf, slots, nil); err != nil {
			t.Fatalf("restored pipeline does not checkpoint: %v", err)
		}
		if _, _, _, err := ResumePipeline(&buf, cfg); err != nil {
			t.Fatalf("re-encoded checkpoint does not resume: %v", err)
		}
	})
}

// TestResumePreallocCapped: the counts in a checkpoint are untrusted, so a
// header claiming 2^24 batch reports must fail at end of input after
// preallocating at most maxPrealloc of them, not the ~2.8 GB it claims.
func TestResumePreallocCapped(t *testing.T) {
	cfg := DefaultConfig()
	var buf bytes.Buffer
	w := pg.NewWireWriter(&buf)
	w.Raw([]byte(checkpointMagic))
	w.String(cfg.withDefaults().fingerprint())
	w.Uvarint(0)          // slots
	writeSkips(w, nil)    // fault quarantines
	w.Uvarint(maxReports) // report count, and no reports follow
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, _, err := ResumePipeline(&buf, cfg); err == nil {
		t.Fatal("checkpoint without its reports resumed")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
		t.Errorf("truncated checkpoint allocated %d bytes before failing, want at most 64 MiB", got)
	}
}
