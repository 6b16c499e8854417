package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"pghive/internal/obs"
	"pghive/internal/pg"
	"pghive/internal/validate"
)

// driftStream builds a deterministic batched stream: `stable` batches of a
// fixed two-type profile (Person/Org nodes, one WORKS_AT edge per person so
// the epoch learns MaxOut = 1), then `drifted` batches that each carry one
// violation of every drift class the generator can witness: an unknown
// label (new_type), a new combination of known labels (new_label_set), a
// STRING in an INT property (widened_type), a Person without its mandatory
// name (missing_mandatory), and a person working at two orgs in one batch
// (cardinality_break).
func driftStream(stable, drifted int) []*pg.Batch {
	var batches []*pg.Batch
	id := pg.ID(1)
	next := func() pg.ID { id++; return id - 1 }
	person := func(b *pg.Batch, props pg.Properties) pg.ID {
		n := pg.NodeRecord{ID: next(), Labels: []string{"Person"}, Props: props}
		b.Nodes = append(b.Nodes, n)
		return n.ID
	}
	org := func(b *pg.Batch) pg.ID {
		n := pg.NodeRecord{ID: next(), Labels: []string{"Org"}, Props: pg.Properties{"name": pg.Str("o")}}
		b.Nodes = append(b.Nodes, n)
		return n.ID
	}
	worksAt := func(b *pg.Batch, src, dst pg.ID) {
		b.Edges = append(b.Edges, pg.EdgeRecord{
			ID: next(), Labels: []string{"WORKS_AT"}, Src: src, Dst: dst,
			SrcLabels: []string{"Person"}, DstLabels: []string{"Org"},
			Props: pg.Properties{"since": pg.Int(2020)},
		})
	}
	stableBatch := func(i int) *pg.Batch {
		b := &pg.Batch{}
		o := org(b)
		for j := 0; j < 20; j++ {
			p := person(b, pg.Properties{"name": pg.Str("p"), "age": pg.Int(int64(20 + (i*20+j)%50))})
			worksAt(b, p, o)
		}
		return b
	}
	for i := 0; i < stable; i++ {
		batches = append(batches, stableBatch(i))
	}
	for i := 0; i < drifted; i++ {
		b := stableBatch(stable + i)
		// new_type: a label outside the epoch vocabulary.
		b.Nodes = append(b.Nodes, pg.NodeRecord{ID: next(), Labels: []string{"Device"},
			Props: pg.Properties{"serial": pg.Str("d")}})
		// new_label_set: both labels known, combination unseen.
		b.Nodes = append(b.Nodes, pg.NodeRecord{ID: next(), Labels: []string{"Person", "Org"},
			Props: pg.Properties{"name": pg.Str("x")}})
		// widened_type: age is declared INT.
		person(b, pg.Properties{"name": pg.Str("w"), "age": pg.Str("old")})
		// missing_mandatory: every stable Person carried name.
		person(b, pg.Properties{"age": pg.Int(1)})
		// cardinality_break: one person, two WORKS_AT in the same batch.
		p := person(b, pg.Properties{"name": pg.Str("m"), "age": pg.Int(2)})
		worksAt(b, p, org(b))
		worksAt(b, p, org(b))
		batches = append(batches, b)
	}
	return batches
}

func TestParseDriftPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want DriftPolicy
	}{{"", DriftOff}, {"off", DriftOff}, {"evolve", DriftEvolve}, {"alert", DriftAlert}, {"quarantine", DriftQuarantine}} {
		got, err := ParseDriftPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseDriftPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseDriftPolicy("panic"); err == nil {
		t.Error("unknown policy must error")
	}
}

// TestDriftEvolveByteIdentical is the acceptance criterion for the evolve
// policy: validation observes but never participates, so the discovered
// schema is byte-identical to a validator-free run — at serial and
// overlapped depths, unsharded and sharded.
func TestDriftEvolveByteIdentical(t *testing.T) {
	batches := driftStream(4, 4)
	for _, depth := range []int{1, 4} {
		for _, shards := range []int{1, 2} {
			base := DefaultConfig()
			base.PipelineDepth = depth
			base.Shards = shards
			want := Discover(pg.NewSliceSource(batches...), base)
			wantJSON, wantDDL := renderDef(t, want.Def)

			cfg := base
			cfg.DriftPolicy = DriftEvolve
			cfg.EpochInterval = 3
			got := Discover(pg.NewSliceSource(batches...), cfg)
			gotJSON, gotDDL := renderDef(t, got.Def)
			if !bytes.Equal(wantJSON, gotJSON) || !bytes.Equal(wantDDL, gotDDL) {
				t.Errorf("depth=%d shards=%d: evolve schema diverges from validator-free run\nwant %s\ngot  %s",
					depth, shards, wantJSON, gotJSON)
			}
			if len(got.Skipped) != 0 {
				t.Errorf("depth=%d shards=%d: evolve quarantined %d batches", depth, shards, len(got.Skipped))
			}
			if got.Drift == nil || got.Drift.Total() == 0 {
				t.Errorf("depth=%d shards=%d: evolve run saw no drift on a drifting stream: %+v", depth, shards, got.Drift)
			}
		}
	}
}

// TestDriftCountersClassified: a drifting stream fires every witnessable
// drift class — on the obs registry, in the drift log, and in the summary —
// and the epoch diff against the pre-drift baseline is nonempty.
func TestDriftCountersClassified(t *testing.T) {
	batches := driftStream(4, 4)
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	cfg := DefaultConfig()
	cfg.DriftPolicy = DriftAlert
	cfg.EpochInterval = 3
	cfg.Telemetry = reg
	cfg.DriftLog = NewDriftLog(&logBuf)
	res := Discover(pg.NewSliceSource(batches...), cfg)

	snap := reg.Snapshot()
	for ctr, class := range map[obs.Counter]validate.DriftClass{
		obs.CtrDriftNewType:          validate.DriftNewType,
		obs.CtrDriftNewLabelSet:      validate.DriftNewLabelSet,
		obs.CtrDriftWidenedType:      validate.DriftWidenedType,
		obs.CtrDriftMissingMandatory: validate.DriftMissingMandatory,
		obs.CtrDriftCardinalityBreak: validate.DriftCardinalityBreak,
	} {
		if snap.Counter(ctr) == 0 {
			t.Errorf("counter %s stayed zero on a drifting stream", ctr)
		}
		if snap.Counter(ctr) != res.Drift.Class(class) {
			t.Errorf("%s: registry %d != summary %d", ctr, snap.Counter(ctr), res.Drift.Class(class))
		}
	}
	if snap.Counter(obs.CtrDriftBatches) == 0 || res.Drift.DriftBatches == 0 {
		t.Error("no batches counted as drifting")
	}
	if snap.Counter(obs.CtrEpochs) < 2 || res.Drift.Epochs < 2 {
		t.Errorf("epochs = %d (summary %d), want >= 2", snap.Counter(obs.CtrEpochs), res.Drift.Epochs)
	}
	if snap.Counter(obs.CtrEpochChanges) == 0 || res.Drift.EpochChanges == 0 {
		t.Error("epoch diff recorded no changes across a drifting stream")
	}
	if snap.Hist(obs.HistDriftBatchViolations).Count == 0 {
		t.Error("drift_batch_violations histogram is empty")
	}

	// The drift log must carry both record kinds, with classified counts
	// and a nonempty epoch diff.
	var sawViolations, sawEpochDiff bool
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec struct {
			Kind    string            `json:"kind"`
			Counts  map[string]uint64 `json:"counts"`
			Changes int               `json:"changes"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad drift-log line %q: %v", line, err)
		}
		switch rec.Kind {
		case "violations":
			if rec.Counts["new_type"] > 0 {
				sawViolations = true
			}
		case "epoch":
			if rec.Changes > 0 {
				sawEpochDiff = true
			}
		default:
			t.Errorf("unknown drift-log kind %q", rec.Kind)
		}
	}
	if !sawViolations || !sawEpochDiff {
		t.Errorf("drift log incomplete: violations=%t epochDiff=%t\n%s", sawViolations, sawEpochDiff, logBuf.String())
	}
}

// TestDriftStableStreamZero: on a stable stream every drift counter stays
// zero across all windows — epochs fire, but their diffs are empty and no
// batch is flagged. This is the false-positive gate.
func TestDriftStableStreamZero(t *testing.T) {
	batches := driftStream(9, 0)
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.DriftPolicy = DriftEvolve
	cfg.EpochInterval = 3
	cfg.Telemetry = reg
	res := Discover(pg.NewSliceSource(batches...), cfg)

	snap := reg.Snapshot()
	for _, ctr := range []obs.Counter{
		obs.CtrDriftNewType, obs.CtrDriftNewLabelSet, obs.CtrDriftWidenedType,
		obs.CtrDriftMissingMandatory, obs.CtrDriftCardinalityBreak,
		obs.CtrDriftTypeDowngrade, obs.CtrDriftBatches, obs.CtrDriftQuarantined,
	} {
		if v := snap.Counter(ctr); v != 0 {
			t.Errorf("stable stream: counter %s = %d, want 0", ctr, v)
		}
	}
	if res.Drift.Total() != 0 || res.Drift.DriftBatches != 0 {
		t.Errorf("stable stream: summary reports drift: %+v", res.Drift)
	}
	if res.Drift.Epochs < 2 {
		t.Errorf("epochs = %d, want >= 2", res.Drift.Epochs)
	}
	if res.Drift.EpochChanges != 0 {
		t.Errorf("stable stream: epoch diffs carry %d changes, want 0", res.Drift.EpochChanges)
	}
}

// TestDriftQuarantineHoldsSchema: under quarantine, every drifting batch is
// withheld, so the final schema is byte-identical to a run over the stable
// prefix alone and the skip reports name the drift classes.
func TestDriftQuarantineHoldsSchema(t *testing.T) {
	stable, drifted := 6, 3
	batches := driftStream(stable, drifted)
	base := DefaultConfig()
	wantJSON, wantDDL := renderDef(t, Discover(pg.NewSliceSource(batches[:stable]...), base).Def)

	cfg := base
	cfg.DriftPolicy = DriftQuarantine
	cfg.EpochInterval = 3
	res := Discover(pg.NewSliceSource(batches...), cfg)
	gotJSON, gotDDL := renderDef(t, res.Def)
	if !bytes.Equal(wantJSON, gotJSON) || !bytes.Equal(wantDDL, gotDDL) {
		t.Errorf("quarantine let drift into the schema\nstable-only: %s\nquarantined: %s", wantJSON, gotJSON)
	}
	if len(res.Skipped) != drifted || res.Drift.Quarantined != drifted {
		t.Fatalf("skipped %d batches (summary %d), want %d: %+v", len(res.Skipped), res.Drift.Quarantined, drifted, res.Skipped)
	}
	for i, s := range res.Skipped {
		if s.Seq != stable+i {
			t.Errorf("skip %d at slot %d, want %d", i, s.Seq, stable+i)
		}
		if !strings.Contains(s.Reason, "drift: quarantined") || !strings.Contains(s.Reason, "new_type=") {
			t.Errorf("skip reason %q lacks drift classification", s.Reason)
		}
	}
	if len(res.Reports) != stable {
		t.Errorf("%d reports, want %d (quarantined batches produce none)", len(res.Reports), stable)
	}
}

// TestDriftFingerprints: evolve and alert are execution-only, so their
// checkpoints cross-resume with validator-free runs; quarantine changes
// which batches merge, so its fingerprint — and its epoch cadence — stand
// apart.
func TestDriftFingerprints(t *testing.T) {
	off := DefaultConfig().withDefaults()
	evolve, alert, quarantine := off, off, off
	evolve.DriftPolicy = DriftEvolve
	alert.DriftPolicy = DriftAlert
	quarantine.DriftPolicy = DriftQuarantine
	if off.fingerprint() != evolve.fingerprint() || off.fingerprint() != alert.fingerprint() {
		t.Error("evolve/alert must share the validator-free fingerprint")
	}
	if off.fingerprint() == quarantine.fingerprint() {
		t.Error("quarantine must change the fingerprint")
	}
	q2 := quarantine
	q2.EpochInterval = 4
	if quarantine.fingerprint() == q2.fingerprint() {
		t.Error("epoch interval must fingerprint under quarantine")
	}
}

// TestDriftCrashResumeQuarantine: kill a checkpointing quarantine run
// mid-stream and resume it — the finalized schema, the quarantine list and
// the epoch counter all match an uninterrupted run. The epoch baseline
// rides in the checkpoint, so the resumed run validates the remaining
// batches against the exact Def the dead run was using.
func TestDriftCrashResumeQuarantine(t *testing.T) {
	batches := driftStream(6, 3)
	cfg := DefaultConfig()
	cfg.DriftPolicy = DriftQuarantine
	cfg.EpochInterval = 3
	uninterrupted, err := Run(pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, wantDDL := renderDef(t, uninterrupted.Def)

	for _, kill := range []int{4, 7} {
		for _, depth := range []int{1, 4} {
			cfg := cfg
			cfg.PipelineDepth = depth
			ck := FileCheckpointer{Path: filepath.Join(t.TempDir(), "drift.ck")}
			crash := pg.NewFaultSource(pg.AsErrSource(pg.NewSliceSource(batches...)),
				pg.FaultProfile{FailAfter: kill, Seed: 1})
			if _, err := Run(crash, cfg, RunOptions{Checkpoint: ck}); !errors.Is(err, pg.ErrPermanentFault) {
				t.Fatalf("kill=%d depth=%d: want permanent fault, got %v", kill, depth, err)
			}
			state, ok, err := ck.Load()
			if err != nil || !ok {
				t.Fatalf("kill=%d depth=%d: checkpoint load: ok=%t err=%v", kill, depth, ok, err)
			}
			res, err := Run(pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, RunOptions{Checkpoint: ck, Resume: state})
			if err != nil {
				t.Fatalf("kill=%d depth=%d: resume: %v", kill, depth, err)
			}
			gotJSON, gotDDL := renderDef(t, res.Def)
			if !bytes.Equal(wantJSON, gotJSON) || !bytes.Equal(wantDDL, gotDDL) {
				t.Errorf("kill=%d depth=%d: resumed schema diverges\nwant %s\ngot  %s", kill, depth, wantJSON, gotJSON)
			}
			if len(res.Skipped) != len(uninterrupted.Skipped) {
				t.Errorf("kill=%d depth=%d: resumed skip list %v, want %v", kill, depth, res.Skipped, uninterrupted.Skipped)
			}
			if res.Drift.Epochs != uninterrupted.Drift.Epochs {
				t.Errorf("kill=%d depth=%d: epochs %d, want %d", kill, depth, res.Drift.Epochs, uninterrupted.Drift.Epochs)
			}
		}
	}
}

// TestDriftShardedQuarantine: under -shards N each shard validates its own
// sub-stream against its own epochs; shard-level quarantines surface in
// Result.Skipped with the shard named, and the summaries merge.
func TestDriftShardedQuarantine(t *testing.T) {
	batches := driftStream(6, 3)
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.DriftPolicy = DriftQuarantine
	cfg.EpochInterval = 3
	res := Discover(pg.NewSliceSource(batches...), cfg)
	if res.Drift == nil || res.Drift.Quarantined == 0 {
		t.Fatalf("sharded quarantine saw no drift: %+v", res.Drift)
	}
	if len(res.Skipped) != res.Drift.Quarantined {
		t.Errorf("%d skip reports, summary says %d", len(res.Skipped), res.Drift.Quarantined)
	}
	for _, s := range res.Skipped {
		if !strings.Contains(s.Reason, "shard ") {
			t.Errorf("sharded skip reason %q does not name its shard", s.Reason)
		}
	}
	// The drifted tail must not have leaked its new label into the merge.
	for _, n := range res.Def.Nodes {
		for _, l := range n.Labels {
			if l == "Device" {
				t.Error("quarantined label Device leaked into the merged schema")
			}
		}
	}
}
