// Command pghive-soak runs sustained schema discovery over a declarative
// adversarial scenario and checks invariants while it runs: monotone
// type/property growth, checkpoint resumability, kill/resume byte-identity,
// sharded-vs-serial equivalence, and a retained-heap budget.
//
//	pghive-soak -scenario near-theta -kills 2 -fault-rate 0.1
//	pghive-soak -scenario workload.json -shards 4 -equivalence
//	pghive-soak -list
//
// The scenario is a built-in name (see -list) or a path to a scenario JSON
// file. The process exits 1 when any invariant is violated, so a soak run
// doubles as a CI gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pghive/cmd/internal/cli"
	"pghive/internal/datagen"
	"pghive/internal/pg"
	"pghive/internal/soak"
	"pghive/internal/validate"
)

func main() {
	var f cli.Flags
	flag.Int64Var(&f.Seed, "seed", 1, "random seed (scenario stream and fault schedule)")
	flag.StringVar(&f.Method, "method", "elsh", "clustering method: elsh or minhash")
	flag.Float64Var(&f.Theta, "theta", 0.9, "Jaccard merge threshold")
	flag.IntVar(&f.Depth, "pipeline-depth", 0, "execution engine depth (0 = default)")
	flag.IntVar(&f.Shards, "shards", 0, "partition the stream across N concurrent pipelines (0/1 = single)")
	flag.StringVar(&f.DriftPolicy, "drift-policy", "off", "streaming conformance checking: off, evolve, alert, or quarantine")
	flag.IntVar(&f.EpochInterval, "epoch-interval", 0, "schema epoch window in batches for the conformance checker (0 = default)")
	flag.StringVar(&f.DriftLog, "drift-log", "", "append drift records (classified violations, epoch diffs) to this JSONL file")
	flag.BoolVar(&f.Telemetry, "telemetry", false, "print aggregated run metrics to stderr")
	flag.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve live metrics at http://ADDR/metrics during the run")
	var (
		scenario    = flag.String("scenario", "", "scenario name (see -list) or path to a scenario JSON file")
		list        = flag.Bool("list", false, "list built-in scenarios and exit")
		repeat      = flag.Int("repeat", 1, "play the scenario timeline this many times back to back")
		window      = flag.Int("window", soak.DefaultWindow, "check invariants every N checkpoints")
		kills       = flag.Int("kills", 0, "inject N kill/resume cycles through the checkpoint path")
		killEvery   = flag.Int("kill-every", soak.DefaultKillEvery, "deliver N more batches before each kill")
		faultRate   = flag.Float64("fault-rate", 0, "per-attempt transient fault probability")
		corruptRate = flag.Float64("corrupt-rate", 0, "per-batch corrupt (quarantine) probability")
		memBudgetMB = flag.Int("mem-budget-mb", 0, "enforce this memory budget (sketched evidence) and fail if retained heap or checkpointed evidence exceeds it (0 = unchecked)")
		equivalence = flag.Bool("equivalence", false, "with -shards > 1, re-run serially and require schema equivalence")
		noResume    = flag.Bool("skip-resume-check", false, "skip the kill/resume byte-identity reference run")
		verbose     = flag.Bool("v", false, "log harness progress to stderr")
		schemaOut   = flag.String("schema-out", "", "write the final schema JSON to this file")
	)
	flag.Parse()

	if *list {
		for _, sc := range datagen.Scenarios() {
			fmt.Printf("%-14s %3d batches  %s\n", sc.Name, sc.TotalBatches(), sc.Description)
		}
		return
	}
	if *scenario == "" {
		fatal(fmt.Errorf("no scenario: pass -scenario NAME (or a .json path); -list shows built-ins"))
	}
	sc, err := cli.LoadScenario(*scenario)
	if err != nil {
		fatal(err)
	}

	reg, sink, stopTelemetry, err := f.StartTelemetry()
	if err != nil {
		fatal(err)
	}
	defer stopTelemetry()
	cfg, closeLog, err := f.Config(sink)
	if err != nil {
		fatal(err)
	}
	defer closeLog()

	opts := soak.Options{
		Scenario:         sc,
		Seed:             f.Seed,
		Repeat:           *repeat,
		Config:           cfg,
		Faults:           pg.FaultProfile{TransientRate: *faultRate, CorruptRate: *corruptRate},
		Window:           *window,
		Kills:            *kills,
		KillEvery:        *killEvery,
		MemBudgetBytes:   uint64(*memBudgetMB) * 1 << 20,
		CheckEquivalence: *equivalence,
		SkipResumeCheck:  *noResume,
	}
	if *verbose {
		opts.Log = os.Stderr
	}

	rep, err := soak.Run(opts)
	if err != nil {
		fatal(err)
	}
	if reg != nil && f.Telemetry {
		reg.Snapshot().WriteText(os.Stderr)
	}
	if *schemaOut != "" {
		if err := os.WriteFile(*schemaOut, rep.SchemaJSON, 0o644); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("scenario %s: %d batches (%d quarantined), %d nodes, %d edges\n",
		rep.Scenario, rep.Batches, rep.Quarantined, rep.Nodes, rep.Edges)
	fmt.Printf("stream %s\n", rep.StreamHash)
	fmt.Printf("schema: %d node types, %d edge types in %v (shards=%d)\n",
		rep.NodeTypes, rep.EdgeTypes, rep.Elapsed.Round(1e6), rep.Shards)
	fmt.Printf("harness: %d kills, %d checkpoints, %d windows checked", rep.Kills, rep.Checkpoints, rep.Windows)
	if rep.HeapPeak > 0 {
		fmt.Printf(", heap peak %.1f MB", float64(rep.HeapPeak)/(1<<20))
	}
	if rep.EvidencePeak > 0 {
		fmt.Printf(", evidence peak %.1f MB", float64(rep.EvidencePeak)/(1<<20))
	}
	fmt.Println()
	if d := rep.Drift; d != nil {
		fmt.Printf("drift (%s): %d violations in %d batches (%d quarantined), %d epochs, %d epoch-diff changes\n",
			d.Policy, d.Total(), d.DriftBatches, d.Quarantined, d.Epochs, d.EpochChanges)
		var classes []string
		for c := validate.DriftClass(0); c < validate.NumDriftClasses; c++ {
			if n := d.Class(c); n > 0 {
				classes = append(classes, fmt.Sprintf("%s=%d", c, n))
			}
		}
		if len(classes) > 0 {
			fmt.Printf("drift classes: %s\n", strings.Join(classes, " "))
		}
	}
	if rep.OK() {
		fmt.Println("invariants: OK")
		return
	}
	fmt.Printf("invariants: %d VIOLATIONS\n", len(rep.Violations))
	for _, v := range rep.Violations {
		fmt.Printf("  window %d: %s: %s\n", v.Window, v.Invariant, v.Detail)
	}
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pghive-soak:", err)
	os.Exit(1)
}
