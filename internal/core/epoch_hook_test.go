package core

import (
	"bytes"
	"fmt"
	"testing"

	"pghive/internal/pg"
	"pghive/internal/schema"
	"pghive/internal/serialize"
)

// TestOnEpochWithoutDrift: the publication hook alone (DriftPolicy off)
// activates the epoch clock — snapshots fire every EpochInterval batches
// with monotone epoch numbers and immutable defs — while the discovered
// schema stays byte-identical to a hook-free run and Result.Drift stays nil
// (no policy means no drift activity). The stream ends on a window
// boundary, so the run closes by sending the last epoch again as final.
func TestOnEpochWithoutDrift(t *testing.T) {
	batches := driftStream(6, 0)
	base := DefaultConfig()
	want := Discover(pg.NewSliceSource(batches...), base)
	wantJSON, _ := renderDef(t, want.Def)

	var snaps []EpochSnapshot
	cfg := base
	cfg.EpochInterval = 2
	cfg.OnEpoch = func(s EpochSnapshot) { snaps = append(snaps, s) }
	got := Discover(pg.NewSliceSource(batches...), cfg)
	gotJSON, _ := renderDef(t, got.Def)

	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("OnEpoch run diverges from hook-free run\nwant %s\ngot  %s", wantJSON, gotJSON)
	}
	if got.Drift != nil {
		t.Errorf("epoch-only mode must not report drift activity: %+v", got.Drift)
	}
	if len(snaps) != 4 {
		t.Fatalf("6 batches at interval 2 want 3 epochs and the final re-send, got %d snapshots", len(snaps))
	}
	for i, s := range snaps[:3] {
		if s.Epoch != i+1 || s.Final {
			t.Errorf("snapshot %d: epoch = %d final = %t, want %d, false", i, s.Epoch, s.Final, i+1)
		}
		if s.Batches != (i+1)*2 {
			t.Errorf("snapshot %d: batches = %d, want %d", i, s.Batches, (i+1)*2)
		}
		if s.Def == nil {
			t.Fatalf("snapshot %d: nil def", i)
		}
		if i == 0 && s.Changes != nil {
			t.Errorf("baseline snapshot carries changes: %v", s.Changes)
		}
	}
	last, resend := snaps[2], snaps[3]
	if !resend.Final || resend.Epoch != last.Epoch || resend.Batches != last.Batches ||
		resend.Seq != last.Seq || len(resend.Changes) != len(last.Changes) {
		t.Errorf("final re-send {Epoch %d, Batches %d, Seq %d, Final %t}, want epoch %d again as final",
			resend.Epoch, resend.Batches, resend.Seq, resend.Final, last.Epoch)
	}
	// The final snapshot carries the run's finalized schema.
	if resend.Def != got.Def {
		t.Errorf("final snapshot def is not Result.Def")
	}
	var snapJSON, resJSON bytes.Buffer
	if err := serialize.WriteJSON(&snapJSON, last.Def); err != nil {
		t.Fatal(err)
	}
	if err := serialize.WriteJSON(&resJSON, got.Def); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapJSON.Bytes(), resJSON.Bytes()) {
		t.Errorf("last epoch def differs from Result.Def")
	}
}

// TestOnEpochFinalContract: every successful run with a clock ends with
// exactly one Final snapshot carrying Result.Def — a new epoch for a stream
// shorter than one window or ending mid-window, the last epoch re-sent for
// one ending on a boundary — at every depth, sharded or not.
func TestOnEpochFinalContract(t *testing.T) {
	batches := driftStream(6, 0)
	for _, shards := range []int{0, 2} {
		for _, depth := range []int{1, 4} {
			for _, tc := range []struct {
				n, interval, epochs int
				resend              bool
			}{{1, 4, 1, false}, {6, 4, 2, false}, {6, 3, 2, true}} {
				name := fmt.Sprintf("shards=%d depth=%d n=%d interval=%d", shards, depth, tc.n, tc.interval)
				var snaps []EpochSnapshot
				cfg := DefaultConfig()
				cfg.Shards, cfg.PipelineDepth, cfg.EpochInterval = shards, depth, tc.interval
				cfg.OnEpoch = func(s EpochSnapshot) { snaps = append(snaps, s) }
				res := Discover(pg.NewSliceSource(batches[:tc.n]...), cfg)
				finals := 0
				for _, s := range snaps {
					if s.Final {
						finals++
					}
				}
				last := snaps[len(snaps)-1]
				if finals != 1 || !last.Final || last.Def != res.Def {
					t.Errorf("%s: %d final snapshots, last final %t, want exactly one carrying Result.Def", name, finals, last.Final)
				}
				if last.Epoch != tc.epochs || last.Batches != tc.n {
					t.Errorf("%s: final = {Epoch %d, Batches %d}, want {%d, %d}", name, last.Epoch, last.Batches, tc.epochs, tc.n)
				}
				if resent := len(snaps) > 1 && snaps[len(snaps)-2].Epoch == last.Epoch; resent != tc.resend {
					t.Errorf("%s: final re-send %t, want %t", name, resent, tc.resend)
				}
			}
		}
	}
}

// TestOnEpochSnapshotImmutable: a retained snapshot def does not change as
// later batches merge — the published epochs are true copy-on-write views.
func TestOnEpochSnapshotImmutable(t *testing.T) {
	batches := driftStream(6, 2)
	var first *schema.Def
	var firstJSON []byte
	cfg := DefaultConfig()
	cfg.EpochInterval = 2
	cfg.OnEpoch = func(s EpochSnapshot) {
		if first == nil {
			first = s.Def
			var buf bytes.Buffer
			if err := serialize.WriteJSON(&buf, first); err != nil {
				t.Error(err)
			}
			firstJSON = buf.Bytes()
		}
	}
	Discover(pg.NewSliceSource(batches...), cfg)
	var after bytes.Buffer
	if err := serialize.WriteJSON(&after, first); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(firstJSON, after.Bytes()) {
		t.Error("epoch 1 def mutated by later batches")
	}
}

// TestOnEpochComposesWithDrift: with a policy set, the same hook rides the
// existing drift epochs (no separate clock) and drift reporting still works;
// the final re-send adds no epoch.
func TestOnEpochComposesWithDrift(t *testing.T) {
	batches := driftStream(4, 2)
	epochs, finals := 0, 0
	cfg := DefaultConfig()
	cfg.DriftPolicy = DriftEvolve
	cfg.EpochInterval = 2
	cfg.OnEpoch = func(s EpochSnapshot) {
		if s.Final {
			finals++
		}
		epochs = s.Epoch
	}
	res := Discover(pg.NewSliceSource(batches...), cfg)
	if res.Drift == nil || res.Drift.Epochs != epochs || finals != 1 {
		t.Fatalf("hook saw %d epochs (%d final), summary %+v", epochs, finals, res.Drift)
	}
	if res.Drift.Total() == 0 {
		t.Error("drifting stream reported no violations under evolve+hook")
	}
}
