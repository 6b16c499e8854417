//go:build !race

package serve

import (
	"runtime"
	"testing"

	"pghive/internal/core"
)

// TestServeRetainedHeapFlatInEpochs is the O(schema) memory gate. The same
// 400-batch stream is ingested with an epoch every 10 batches (40 epochs)
// and with one every batch (400 epochs). All four tiers of every epoch are
// rendered while it is current, from a chained OnEpoch hook and once more
// at the end, so each epoch owns a Def and a full render cache before it is
// superseded. The history keeps one row per epoch and drops the rest, so
// the 360 extra epochs may cost under 1 KiB of retained heap each.
//
// Retained heap is the post-GC HeapAlloc delta across the run with the
// server and the result held live, so the test must not run in parallel
// with another. Race builds skip it: there is no concurrency here for the
// detector to check, and it slows the 440 publishes and their renders
// several-fold.
func TestServeRetainedHeapFlatInEpochs(t *testing.T) {
	batches := stream(400)
	renderAll := func(e *Epoch) {
		for tier := TierSummary; tier < numTiers; tier++ {
			e.Rendered(tier)
		}
	}
	run := func(interval int) (epochs int, retained uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s := NewServer(nil)
		cfg := core.Config{EpochInterval: interval}
		cfg.OnEpoch = func(core.EpochSnapshot) { renderAll(s.Current()) }
		res, err := s.Ingest(src(batches), IngestOptions{Config: cfg})
		if err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
		renderAll(s.Current())
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(res)
		epochs = len(s.Epochs())
		if after.HeapAlloc <= before.HeapAlloc {
			return epochs, 0
		}
		return epochs, after.HeapAlloc - before.HeapAlloc
	}

	// An unmeasured run first: one-time process state (encoding/json's type
	// cache, lazily built tables) would otherwise count against whichever
	// reading came first.
	run(10)
	n40, h40 := run(10)
	n400, h400 := run(1)
	if n40 != 40 || n400 != 400 {
		t.Fatalf("published %d and %d epochs, want 40 and 400", n40, n400)
	}
	perEpoch := (float64(h400) - float64(h40)) / float64(n400-n40)
	t.Logf("retained heap: %d B at %d epochs, %d B at %d epochs, %.0f B per extra epoch",
		h40, n40, h400, n400, perEpoch)
	if perEpoch >= 1024 {
		t.Errorf("%.0f B of retained heap per extra epoch, want under 1 KiB: superseded epochs are still referenced", perEpoch)
	}
}
