package soak

import (
	"errors"
	"strings"
	"testing"

	"pghive/internal/core"
	"pghive/internal/datagen"
	"pghive/internal/pg"
)

// shrunk returns a -short-friendly copy of a named scenario: fewer batches
// per phase and smaller batches, same adversarial structure.
func shrunk(t testing.TB, name string) *datagen.Scenario {
	sc := datagen.ScenarioByName(name)
	if sc == nil {
		t.Fatalf("unknown scenario %q", name)
	}
	if !testing.Short() {
		return sc
	}
	small := *sc
	small.BatchNodes = 80
	small.Phases = append([]datagen.ScenarioPhase(nil), sc.Phases...)
	for i := range small.Phases {
		if small.Phases[i].Batches > 2 {
			small.Phases[i].Batches = 2
		}
		if small.Phases[i].NodesPerBatch > 80 {
			small.Phases[i].NodesPerBatch = 80
		}
	}
	return &small
}

func TestSoakCleanRun(t *testing.T) {
	sc := shrunk(t, "gradual-drift")
	rep, err := Run(Options{Scenario: sc, Seed: 1, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("violations on a clean run: %v", rep.Violations)
	}
	if rep.Batches != sc.TotalBatches() {
		t.Errorf("processed %d batches, want %d", rep.Batches, sc.TotalBatches())
	}
	if rep.Checkpoints != rep.Batches {
		t.Errorf("%d checkpoints for %d batches", rep.Checkpoints, rep.Batches)
	}
	if rep.Windows == 0 || rep.NodeTypes == 0 || rep.EdgeTypes == 0 {
		t.Errorf("empty report: %d windows, %d node types, %d edge types",
			rep.Windows, rep.NodeTypes, rep.EdgeTypes)
	}
	if rep.StreamHash == "" || len(rep.SchemaJSON) == 0 {
		t.Error("missing stream hash or schema JSON")
	}
}

// Faults + kill/resume: the harness must survive transient and corrupt
// batches, one mid-run kill, and still match the uninterrupted run
// byte-for-byte (checked inside Run; OK() carries the verdict).
func TestSoakFaultsAndKillResume(t *testing.T) {
	sc := shrunk(t, "near-theta")
	rep, err := Run(Options{
		Scenario:  sc,
		Seed:      3,
		Window:    2,
		Kills:     1,
		KillEvery: 4,
		Faults:    pg.FaultProfile{TransientRate: 0.2, CorruptRate: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kills != 1 {
		t.Errorf("injected %d kills, want 1", rep.Kills)
	}
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

func TestSoakShardedWithEverything(t *testing.T) {
	sc := shrunk(t, "abrupt-drift")
	cfg := core.Config{Shards: 2}
	rep, err := Run(Options{
		Scenario:         sc,
		Seed:             5,
		Config:           cfg,
		Window:           2,
		Kills:            1,
		KillEvery:        4,
		Faults:           pg.FaultProfile{TransientRate: 0.15, CorruptRate: 0.04},
		CheckEquivalence: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Kills != 1 {
		t.Errorf("injected %d kills, want 1", rep.Kills)
	}
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
}

// TestSoakDrift: the conformance checker rides the soak harness — a drift
// scenario under quarantine keeps the pre-drift schema and reports every
// quarantined batch, a steady stream stays at zero across every window, and
// the drift-accounting invariant holds in both cases.
func TestSoakDrift(t *testing.T) {
	rep, err := Run(Options{
		Scenario: shrunk(t, "gradual-drift"),
		Seed:     1,
		Window:   2,
		// Interval 2 keeps the first epoch inside the base phase even on
		// the -short shrunk timeline.
		Config: core.Config{DriftPolicy: core.DriftQuarantine, EpochInterval: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	d := rep.Drift
	if d == nil {
		t.Fatal("no drift summary")
	}
	if d.Total() == 0 || d.Quarantined == 0 {
		t.Errorf("drift scenario under quarantine: %d violations, %d quarantined", d.Total(), d.Quarantined)
	}
	if d.Quarantined != rep.Quarantined {
		t.Errorf("report counts %d quarantined, drift summary %d", rep.Quarantined, d.Quarantined)
	}
	// Drift-phase types must be held out of the schema.
	if strings.Contains(string(rep.SchemaJSON), "Session") {
		t.Error("quarantine admitted the drift-phase Session type")
	}

	steady, err := Run(Options{
		Scenario: shrunk(t, "steady"),
		Seed:     1,
		Window:   2,
		Config:   core.Config{DriftPolicy: core.DriftQuarantine, EpochInterval: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !steady.OK() {
		t.Fatalf("steady violations: %v", steady.Violations)
	}
	if sd := steady.Drift; sd == nil || sd.Total() != 0 || sd.Quarantined != 0 {
		t.Errorf("steady stream drifted: %+v", steady.Drift)
	}

	// Quarantine under sharding has no serial-equivalence claim.
	if _, err := Run(Options{
		Scenario:         shrunk(t, "gradual-drift"),
		Seed:             1,
		Config:           core.Config{Shards: 2, DriftPolicy: core.DriftQuarantine},
		CheckEquivalence: true,
	}); err == nil {
		t.Error("equivalence check accepted under quarantine")
	}
}

func TestSoakHeapBudgetViolation(t *testing.T) {
	rep, err := Run(Options{
		Scenario:       shrunk(t, "skew"),
		Seed:           1,
		Window:         2,
		MemBudgetBytes: 1, // impossible budget: the check itself must fire
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("1-byte heap budget not reported as violated")
	}
	// The budget is wired into the pipeline, so both the heap invariant
	// and the evidence-footprint invariant must trip on an impossible one.
	seen := map[string]bool{}
	for _, v := range rep.Violations {
		switch v.Invariant {
		case "heap-budget", "evidence-budget":
			seen[v.Invariant] = true
		default:
			t.Errorf("unexpected violation %v", v)
		}
	}
	if !seen["heap-budget"] || !seen["evidence-budget"] {
		t.Errorf("violated invariants %v, want both heap-budget and evidence-budget", seen)
	}
	if rep.HeapPeak == 0 {
		t.Error("heap peak not recorded")
	}
	if rep.EvidencePeak == 0 {
		t.Error("evidence peak not recorded")
	}
}

// TestSoakSketchedWithinBudget: under a realistic budget the sketched
// evidence mode must actually stay inside it — the invariant that makes
// -mem-budget a guarantee rather than a suggestion.
func TestSoakSketchedWithinBudget(t *testing.T) {
	rep, err := Run(Options{
		Scenario:       shrunk(t, "skew"),
		Seed:           1,
		Window:         2,
		MemBudgetBytes: 256 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("violations under a 256MB budget: %v", rep.Violations)
	}
	if rep.EvidencePeak == 0 {
		t.Error("sketched run recorded no evidence footprint")
	}
	if rep.EvidencePeak > 256<<20 {
		t.Errorf("evidence peak %d exceeds the 256MB budget", rep.EvidencePeak)
	}
}

func TestSoakRejectsBadOptions(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Error("nil scenario accepted")
	}
	sc := datagen.ScenarioByName("skew")
	if _, err := Run(Options{Scenario: sc, Faults: pg.FaultProfile{FailAfter: 3}}); err == nil {
		t.Error("FailAfter accepted — it breaks resume replay")
	}
	bad := *sc
	bad.Phases = nil
	if _, err := Run(Options{Scenario: &bad}); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestKillSource(t *testing.T) {
	sc := datagen.ScenarioByName("skew")
	src := &killSource{inner: pg.AsErrSource(sc.Stream(1)), budget: 3}
	for i := 0; i < 3; i++ {
		b, err := src.Next()
		if err != nil || b == nil {
			t.Fatalf("delivery %d: batch %v err %v", i, b != nil, err)
		}
	}
	if _, err := src.Next(); !errors.Is(err, errKill) {
		t.Fatalf("expected kill, got %v", err)
	}
	// budget < 0 never kills.
	free := &killSource{inner: pg.AsErrSource(sc.Stream(1)), budget: -1}
	n := 0
	for {
		b, err := free.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		n++
	}
	if n != sc.TotalBatches() {
		t.Errorf("drained %d batches, want %d", n, sc.TotalBatches())
	}
}

func TestUnionSorted(t *testing.T) {
	got := unionSorted([]string{"a", "c", "e"}, []string{"b", "c", "f"})
	want := "a b c e f"
	if strings.Join(got, " ") != want {
		t.Errorf("unionSorted = %v, want %v", got, want)
	}
	if len(unionSorted(nil, nil)) != 0 {
		t.Error("union of nils not empty")
	}
}
