package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pghive/internal/obs"
	"pghive/internal/pg"
	"pghive/internal/serialize"
)

// defJSON renders a result's schema as the JSON the CLI writes.
func defJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := serialize.WriteJSON(&buf, res.Def); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestShardedFleetEpochs: with OnEpoch set, a sharded run publishes one
// fleet epoch every EpochInterval source batches — exactly ⌊N/I⌋ mid-stream
// epochs — and fleet epoch k is byte-identical to Discover over the
// first k·I batches. The run closes with one final snapshot whose schema is
// the run's own: a new epoch for a partial last window, otherwise the last
// epoch sent again. The run's result is unchanged by the hook. A memory
// budget (sketched evidence) covers the clones' evidence policy.
func TestShardedFleetEpochs(t *testing.T) {
	const n = 7
	batches := faultFreeBatches(t, 280, n)
	for _, fleet := range []struct {
		shards int
		budget int64
	}{{2, 0}, {3, 0}, {2, 1 << 20}} {
		cfg := DefaultConfig()
		cfg.Shards = fleet.shards
		cfg.MemBudgetBytes = fleet.budget
		want := make([][]byte, n+1) // want[k]: Discover over batches[:k]
		for k := 1; k <= n; k++ {
			want[k] = defJSON(t, Discover(pg.NewSliceSource(batches[:k]...), cfg))
		}
		for _, depth := range []int{1, 4} {
			for _, interval := range []int{1, 3} {
				name := fmt.Sprintf("shards=%d budget=%d depth=%d interval=%d", fleet.shards, fleet.budget, depth, interval)
				run := cfg
				run.PipelineDepth = depth
				run.EpochInterval = interval
				var snaps []EpochSnapshot
				run.OnEpoch = func(s EpochSnapshot) { snaps = append(snaps, s) }
				res := Discover(pg.NewSliceSource(batches...), run)
				if got := defJSON(t, res); !bytes.Equal(got, want[n]) {
					t.Errorf("%s: result differs from a hook-free run", name)
				}

				mid := 0
				for _, s := range snaps {
					if !s.Final {
						mid++
					}
				}
				if mid != n/interval {
					t.Fatalf("%s: %d mid-stream epochs, want %d", name, mid, n/interval)
				}
				if got := len(snaps) - mid; got != 1 || !snaps[len(snaps)-1].Final {
					t.Fatalf("%s: %d final snapshots, want the last one only", name, got)
				}
				for i, s := range snaps {
					k, epoch := (i+1)*interval, i+1
					if s.Final {
						k = n
						if n%interval == 0 {
							epoch = i // the last epoch, sent again
						}
					}
					if s.Epoch != epoch || s.Batches != k || s.Seq != k-1 {
						t.Errorf("%s: snapshot %d = {Epoch %d, Batches %d, Seq %d}, want {%d, %d, %d}",
							name, i, s.Epoch, s.Batches, s.Seq, epoch, k, k-1)
					}
					var buf bytes.Buffer
					if err := serialize.WriteJSON(&buf, s.Def); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(buf.Bytes(), want[k]) {
						t.Errorf("%s: epoch %d differs from Discover over the first %d batches", name, s.Epoch, k)
					}
					if i == 0 && s.Changes != nil {
						t.Errorf("%s: baseline epoch carries changes: %v", name, s.Changes)
					}
				}
			}
		}
	}
}

// TestShardedFleetEpochsNoHook: without OnEpoch (or a drift policy) the
// router has no clock and never stops at a cut — no epoch span, no epoch
// counter — and with it every epoch is one span; the final re-send adds
// none.
func TestShardedFleetEpochsNoHook(t *testing.T) {
	batches := faultFreeBatches(t, 200, 6)
	for _, hook := range []bool{false, true} {
		reg := obs.NewRegistry()
		cfg := DefaultConfig()
		cfg.Shards = 2
		cfg.EpochInterval = 2
		cfg.Telemetry = reg
		epochs, calls := 0, 0
		if hook {
			cfg.OnEpoch = func(s EpochSnapshot) { epochs, calls = s.Epoch, calls+1 }
		}
		Discover(pg.NewSliceSource(batches...), cfg)
		snap := reg.Snapshot()
		if got := snap.Stage(obs.StageEpoch).Count; got != uint64(epochs) {
			t.Errorf("hook=%t: %d epoch spans, %d epochs published", hook, got, epochs)
		}
		if got := snap.Counter(obs.CtrEpochs); got != uint64(epochs) {
			t.Errorf("hook=%t: epoch counter %d, %d epochs published", hook, got, epochs)
		}
		if hook && (epochs != 3 || calls != 4) {
			t.Errorf("6 batches at interval 2 published %d epochs in %d calls, want 3 and the final re-send", epochs, calls)
		}
	}
}

// countingSource counts the good batches pulled through it.
type countingSource struct {
	src   pg.ErrSource
	pulls atomic.Int64
}

func (c *countingSource) Next() (*pg.Batch, error) {
	b, err := c.src.Next()
	if b != nil && err == nil {
		c.pulls.Add(1)
	}
	return b, err
}

var errSaveFailed = errors.New("test: save failed")

// failingCheckpointer fails save number failAt and records how many batches
// had been pulled at that moment; every other save succeeds.
type failingCheckpointer struct {
	failAt int
	src    *countingSource

	mu     sync.Mutex
	saves  int
	atFail int64
}

func (f *failingCheckpointer) Save([]byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.saves++
	if f.saves == f.failAt {
		f.atFail = f.src.pulls.Load()
		return errSaveFailed
	}
	return nil
}

// checkSaveFailureStops runs one fault-tolerant discovery whose checkpointer
// fails on save 2 of a 40-batch stream and checks the run stops: the error
// comes back, at most 4·depth batches are pulled after the failing save, and
// no goroutine is left behind.
func checkSaveFailureStops(t *testing.T, shards, depth int) {
	t.Helper()
	batches := faultFreeBatches(t, 400, 40)
	base := runtime.NumGoroutine()
	cfg := DefaultConfig()
	cfg.Shards = shards
	cfg.PipelineDepth = depth
	src := &countingSource{src: pg.AsErrSource(pg.NewSliceSource(batches...))}
	ck := &failingCheckpointer{failAt: 2, src: src}
	_, err := Run(src, cfg, RunOptions{Checkpoint: ck})
	if !errors.Is(err, errSaveFailed) {
		t.Fatalf("shards=%d depth=%d: want the save error, got %v", shards, depth, err)
	}
	if after := src.pulls.Load() - ck.atFail; after > int64(4*depth) {
		t.Errorf("shards=%d depth=%d: %d batches pulled after the failing save (at %d), want ≤ %d",
			shards, depth, after, ck.atFail, 4*depth)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if left := runtime.NumGoroutine() - base; left > 0 {
		t.Errorf("shards=%d depth=%d: %d goroutines left behind", shards, depth, left)
	}
}

// TestDrainFTSaveFailureStops: a failed checkpoint save stops the single
// pipeline at once, inline and overlapped.
func TestDrainFTSaveFailureStops(t *testing.T) {
	for _, depth := range []int{1, 4} {
		checkSaveFailureStops(t, 1, depth)
	}
}

// TestShardedSaveFailureStops: a failed fleet container save stops the
// router and every shard.
func TestShardedSaveFailureStops(t *testing.T) {
	checkSaveFailureStops(t, 2, 4)
}

// TestShardedFleetEpochsSaveFailure: a shard whose checkpoint save fails
// mid-window never reaches the next cut; the router waiting there returns
// the error instead of hanging.
func TestShardedFleetEpochsSaveFailure(t *testing.T) {
	batches := faultFreeBatches(t, 300, 12)
	for _, failAt := range []int{3, 7} {
		for _, depth := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.Shards = 2
			cfg.PipelineDepth = depth
			cfg.EpochInterval = 4
			cfg.OnEpoch = func(EpochSnapshot) {}
			src := &countingSource{src: pg.AsErrSource(pg.NewSliceSource(batches...))}
			done := make(chan error, 1)
			go func() {
				_, err := Run(src, cfg, RunOptions{Checkpoint: &failingCheckpointer{failAt: failAt, src: src}})
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, errSaveFailed) {
					t.Errorf("failAt=%d depth=%d: want the save error, got %v", failAt, depth, err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("failAt=%d depth=%d: run hung after a failed shard save", failAt, depth)
			}
		}
	}
}

// recordingCheckpointer totals what it was handed.
type recordingCheckpointer struct {
	mu           sync.Mutex
	saves, bytes int
}

func (r *recordingCheckpointer) Save(state []byte) error {
	r.mu.Lock()
	r.saves++
	r.bytes += len(state)
	r.mu.Unlock()
	return nil
}

// TestShardedCheckpointBytesCounted: the checkpoint counters report what
// the Checkpointer actually received — for a fleet, the containers, not the
// shard sections inside them.
func TestShardedCheckpointBytesCounted(t *testing.T) {
	batches := faultFreeBatches(t, 300, 6)
	for _, shards := range []int{1, 3} {
		reg := obs.NewRegistry()
		cfg := DefaultConfig()
		cfg.Shards = shards
		cfg.Telemetry = reg
		ck := &recordingCheckpointer{}
		if _, err := Run(pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, RunOptions{Checkpoint: ck}); err != nil {
			t.Fatal(err)
		}
		snap := reg.Snapshot()
		if got := snap.Counter(obs.CtrCheckpointBytes); got != uint64(ck.bytes) {
			t.Errorf("shards=%d: checkpoint bytes counted %d, checkpointer received %d", shards, got, ck.bytes)
		}
		if got := snap.Counter(obs.CtrCheckpoints); got != uint64(ck.saves) {
			t.Errorf("shards=%d: checkpoints counted %d, checkpointer received %d", shards, got, ck.saves)
		}
	}
}

// lastCheckpointer keeps the latest state it was handed.
type lastCheckpointer struct {
	mu    sync.Mutex
	state []byte
}

func (l *lastCheckpointer) Save(state []byte) error {
	l.mu.Lock()
	l.state = append(l.state[:0], state...)
	l.mu.Unlock()
	return nil
}

// TestShardedEvidenceGauge: under sharding the evidence_bytes gauge reports
// the fleet — the sum of every shard's latest evidence footprint — not
// whichever shard extracted last; mem_budget_bytes is the configured budget.
func TestShardedEvidenceGauge(t *testing.T) {
	batches := faultFreeBatches(t, 600, 6)
	for _, budget := range []int64{0, 1 << 20} {
		reg := obs.NewRegistry()
		cfg := DefaultConfig()
		cfg.Shards = 3
		cfg.MemBudgetBytes = budget
		cfg.Telemetry = reg
		ck := &lastCheckpointer{}
		if _, err := Run(pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, RunOptions{Checkpoint: ck}); err != nil {
			t.Fatal(err)
		}
		schemas, err := DecodeCheckpointSchemas(ck.state, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want uint64
		for _, s := range schemas {
			want += uint64(s.EvidenceBytes())
		}
		snap := reg.Snapshot()
		if got := snap.Gauge(obs.GaugeEvidenceBytes); got != want {
			t.Errorf("budget=%d: evidence_bytes gauge %d, shards hold %d in total", budget, got, want)
		}
		if got := snap.Gauge(obs.GaugeMemBudgetBytes); got != uint64(budget) {
			t.Errorf("budget=%d: mem_budget_bytes gauge %d", budget, got)
		}
	}
}
