package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pghive/internal/datagen"
	"pghive/internal/obs"
	"pghive/internal/pg"
	"pghive/internal/serialize"
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

// TestDriftCrashResumeQuarantine: kill a checkpointing quarantine run at
// every stream position and resume it — the finalized schema, the
// quarantine list, the whole drift summary (epochs, per-class counts, drift
// batches, quarantines, epoch-diff changes) and every epoch the resumed run
// publishes all match an uninterrupted run, unsharded and sharded, inline
// and overlapped. The clock's whole state rides in the checkpoint (the
// fleet container's header under sharding), so the resumed run validates
// the remaining batches against the exact Def the dead run was using and
// counts on from its tallies. A drifted batch amid stable ones makes late
// kills replay past a quarantined batch, and a container saved between a
// window's last batch and its cut makes the resumed router take that cut.
func TestDriftCrashResumeQuarantine(t *testing.T) {
	stream := driftStream(9, 1)
	batches := append(append(append([]*pg.Batch(nil), stream[:6]...), stream[9]), stream[6:9]...)
	// epochKey identifies a published epoch by number, frontier and content.
	epochKey := func(s EpochSnapshot) string {
		js, _ := renderDef(t, s.Def)
		return fmt.Sprintf("epoch %d final %t batches %d seq %d changes %d %s", s.Epoch, s.Final, s.Batches, s.Seq, len(s.Changes), js)
	}
	for _, shards := range []int{0, 2} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		cfg.DriftPolicy = DriftQuarantine
		cfg.EpochInterval = 3
		var snaps []EpochSnapshot
		cfg.OnEpoch = func(s EpochSnapshot) { snaps = append(snaps, s) }
		uninterrupted, err := Run(pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, wantDDL := renderDef(t, uninterrupted.Def)
		wantEpochs := map[string]bool{}
		for _, s := range snaps {
			wantEpochs[epochKey(s)] = true
		}
		if uninterrupted.Drift.Quarantined != 1 {
			t.Fatalf("shards=%d: uninterrupted run quarantined %d batches, want the drifted one", shards, uninterrupted.Drift.Quarantined)
		}

		for kill := 1; kill < len(batches); kill++ {
			for _, depth := range []int{1, 4} {
				name := fmt.Sprintf("shards=%d kill=%d depth=%d", shards, kill, depth)
				cfg := cfg
				cfg.PipelineDepth = depth
				ck := FileCheckpointer{Path: filepath.Join(t.TempDir(), "drift.ck")}
				crash := pg.NewFaultSource(pg.AsErrSource(pg.NewSliceSource(batches...)),
					pg.FaultProfile{FailAfter: kill, Seed: 1})
				if _, err := Run(crash, cfg, RunOptions{Checkpoint: ck}); !errors.Is(err, pg.ErrPermanentFault) {
					t.Fatalf("%s: want permanent fault, got %v", name, err)
				}
				state, ok, err := ck.Load()
				if err != nil || !ok {
					t.Fatalf("%s: checkpoint load: ok=%t err=%v", name, ok, err)
				}
				snaps = nil
				res, err := Run(pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, RunOptions{Checkpoint: ck, Resume: state})
				if err != nil {
					t.Fatalf("%s: resume: %v", name, err)
				}
				gotJSON, gotDDL := renderDef(t, res.Def)
				if !bytes.Equal(wantJSON, gotJSON) || !bytes.Equal(wantDDL, gotDDL) {
					t.Errorf("%s: resumed schema diverges\nwant %s\ngot  %s", name, wantJSON, gotJSON)
				}
				if !reflect.DeepEqual(res.Skipped, uninterrupted.Skipped) {
					t.Errorf("%s: resumed skip list %v, want %v", name, res.Skipped, uninterrupted.Skipped)
				}
				if *res.Drift != *uninterrupted.Drift {
					t.Errorf("%s: resumed drift %+v, want %+v", name, *res.Drift, *uninterrupted.Drift)
				}
				for _, s := range snaps {
					if !wantEpochs[epochKey(s)] {
						t.Errorf("%s: resumed run published epoch %d (final %t) at batches %d, seq %d, which the uninterrupted run did not",
							name, s.Epoch, s.Final, s.Batches, s.Seq)
					}
				}
			}
		}
	}
}

// ownsStream builds `stable` batches in which each of 20 Persons OWNS one
// Car (a 1:1 edge type), then one batch giving each of 20 new Persons two
// OWNS edges: 20 cardinality breaks against any epoch taken before it.
func ownsStream(stable int) []*pg.Batch {
	var batches []*pg.Batch
	id := pg.ID(1)
	next := func() pg.ID { id++; return id - 1 }
	batch := func(owned int) *pg.Batch {
		b := &pg.Batch{}
		for j := 0; j < 20; j++ {
			p := pg.NodeRecord{ID: next(), Labels: []string{"Person"}, Props: pg.Properties{"name": pg.Str("p")}}
			b.Nodes = append(b.Nodes, p)
			for k := 0; k < owned; k++ {
				c := pg.NodeRecord{ID: next(), Labels: []string{"Car"}, Props: pg.Properties{"plate": pg.Str("c")}}
				b.Nodes = append(b.Nodes, c)
				b.Edges = append(b.Edges, pg.EdgeRecord{
					ID: next(), Labels: []string{"OWNS"}, Src: p.ID, Dst: c.ID,
					SrcLabels: []string{"Person"}, DstLabels: []string{"Car"},
				})
			}
		}
		return b
	}
	for i := 0; i < stable; i++ {
		batches = append(batches, batch(1))
	}
	return append(batches, batch(2))
}

// TestDriftOneClockPerRun: a sharded run has one epoch clock, the router's,
// which checks whole source batches before they are partitioned; shard
// pipelines hold none. So a source's two edges are checked together however
// the edges are routed, and drift numbers are per-run counts equal to the
// unsharded run's.
func TestDriftOneClockPerRun(t *testing.T) {
	fleet := DefaultConfig()
	fleet.Shards = 3
	fleet.DriftPolicy = DriftQuarantine
	fleet.OnEpoch = func(EpochSnapshot) {}
	for i, p := range newPipelines(fleet.withDefaults()) {
		if p.clock != nil {
			t.Errorf("shard %d pipeline holds an epoch clock", i)
		}
	}

	owns := ownsStream(2)
	for _, shards := range []int{0, 2, 4} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		cfg.DriftPolicy = DriftAlert
		cfg.EpochInterval = 2
		res := Discover(pg.NewSliceSource(owns...), cfg)
		if got := res.Drift.Class(validate.DriftCardinalityBreak); got != 20 {
			t.Errorf("shards=%d: %d cardinality breaks, want 20", shards, got)
		}
	}

	sc := datagen.ScenarioByName("gradual-drift")
	var serial *DriftSummary
	for _, shards := range []int{0, 2, 4} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		cfg.DriftPolicy = DriftQuarantine
		cfg.EpochInterval = 4
		res := Discover(sc.Stream(1), cfg)
		if shards == 0 {
			serial = res.Drift
		} else if res.Drift.Epochs != serial.Epochs {
			t.Errorf("shards=%d: %d epochs, unsharded %d", shards, res.Drift.Epochs, serial.Epochs)
		}
		drift := 0
		for _, s := range res.Skipped {
			if !strings.HasPrefix(s.Reason, "drift: ") {
				continue
			}
			drift++
			if s.Seq < 0 || s.Seq >= 14 {
				t.Errorf("shards=%d: drift skip names slot %d, not a source slot of the 14-batch stream", shards, s.Seq)
			}
		}
		if drift != res.Drift.Quarantined || drift > 14 || drift == 0 {
			t.Errorf("shards=%d: %d drift skip reports, %d quarantined, want equal and in 1..14", shards, drift, res.Drift.Quarantined)
		}
	}
}

// TestDriftShardedQuarantine: under -shards N the router's clock validates
// each whole source batch against the fleet's epochs before partitioning
// it, so quarantines name source slots — the unsharded run's — and the
// summary counts per run, not per shard.
func TestDriftShardedQuarantine(t *testing.T) {
	batches := driftStream(6, 3)
	cfg := DefaultConfig()
	cfg.DriftPolicy = DriftQuarantine
	cfg.EpochInterval = 3
	serial := Discover(pg.NewSliceSource(batches...), cfg)
	for _, shards := range []int{2, 4} {
		cfg := cfg
		cfg.Shards = shards
		res := Discover(pg.NewSliceSource(batches...), cfg)
		if res.Drift == nil || res.Drift.Quarantined == 0 {
			t.Fatalf("shards=%d: sharded quarantine saw no drift: %+v", shards, res.Drift)
		}
		if *res.Drift != *serial.Drift {
			t.Errorf("shards=%d: drift summary %+v, unsharded %+v", shards, *res.Drift, *serial.Drift)
		}
		if len(res.Skipped) != res.Drift.Quarantined || len(res.Skipped) != len(serial.Skipped) {
			t.Fatalf("shards=%d: %d skip reports, summary says %d, unsharded %d", shards, len(res.Skipped), res.Drift.Quarantined, len(serial.Skipped))
		}
		for i, s := range res.Skipped {
			if s != serial.Skipped[i] {
				t.Errorf("shards=%d: skip %d = %+v, unsharded %+v", shards, i, s, serial.Skipped[i])
			}
		}
		// The drifted tail must not have leaked its new label into the merge.
		for _, n := range res.Def.Nodes {
			for _, l := range n.Labels {
				if l == "Device" {
					t.Errorf("shards=%d: quarantined label Device leaked into the merged schema", shards)
				}
			}
		}
	}
}

// TestDriftPolicyContract is the per-policy drift contract over the
// built-in scenarios, steady as the zero-drift control, each discovered at
// depth 1 and epoch interval 4 with the checker off and under every
// policy. Evolve and alert observe without participating, so their schema
// JSON is byte-identical to the checker-free run's. Steady reports no
// violation under any policy. Both drift scenarios report violations under
// every checking policy, and quarantine withholds batches on them.
func TestDriftPolicyContract(t *testing.T) {
	for _, name := range []string{"steady", "gradual-drift", "abrupt-drift"} {
		var batches []*pg.Batch
		src := datagen.ScenarioByName(name).Stream(1)
		for b := src.Next(); b != nil; b = src.Next() {
			batches = append(batches, b)
		}
		var offJSON []byte
		for _, policy := range []DriftPolicy{DriftOff, DriftEvolve, DriftAlert, DriftQuarantine} {
			cfg := DefaultConfig()
			cfg.PipelineDepth = 1
			cfg.DriftPolicy = policy
			cfg.EpochInterval = 4
			res := Discover(pg.NewSliceSource(batches...), cfg)
			var got bytes.Buffer
			if err := serialize.WriteJSON(&got, res.Def); err != nil {
				t.Fatal(err)
			}
			var violations uint64
			quarantined := 0
			if res.Drift != nil {
				violations, quarantined = res.Drift.Total(), res.Drift.Quarantined
			}
			t.Logf("%s/%s: %d violations, %d quarantined", name, policy, violations, quarantined)

			switch policy {
			case DriftOff:
				offJSON = got.Bytes()
			case DriftEvolve, DriftAlert:
				if !bytes.Equal(got.Bytes(), offJSON) {
					t.Errorf("%s/%s: schema differs from the checker-free run's", name, policy)
				}
			}
			if name == "steady" {
				if violations != 0 {
					t.Errorf("%s/%s: %d violations on the zero-drift control", name, policy, violations)
				}
				continue
			}
			if policy != DriftOff && violations == 0 {
				t.Errorf("%s/%s: no violations on a drift scenario", name, policy)
			}
			if policy == DriftQuarantine && quarantined == 0 {
				t.Errorf("%s/%s: quarantine withheld no batch", name, policy)
			}
		}
	}
}
