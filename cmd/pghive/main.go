// Command pghive discovers the schema of a property graph and serializes
// it.
//
// Input is either a JSONL graph file, a pair of Neo4j-style CSV files, or
// a built-in synthetic dataset profile:
//
//	pghive -jsonl graph.jsonl -format pgschema -mode strict
//	pghive -nodes nodes.csv -edges edges.csv -format json
//	pghive -dataset LDBC -scale 10000 -format dot -out schema.dot
//	pghive -scenario near-theta -format json
//
// The -batches flag processes the graph incrementally and reports
// per-batch timings on stderr. The -scenario flag streams a declarative
// adversarial workload (a built-in name or a scenario JSON file) through
// the pipeline instead of loading a graph; the scenario's own phase
// timeline defines the batching.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pghive"
	"pghive/cmd/internal/cli"
)

func main() {
	var f cli.Flags
	flag.StringVar(&f.JSONL, "jsonl", "", "input graph in JSON Lines")
	flag.StringVar(&f.Binary, "binary", "", "input graph in binary snapshot format (.pgb)")
	flag.StringVar(&f.Nodes, "nodes", "", "input node CSV (with -edges)")
	flag.StringVar(&f.Edges, "edges", "", "input edge CSV")
	flag.StringVar(&f.Dataset, "dataset", "", "generate a built-in dataset profile instead (POLE, MB6, HET.IO, FIB25, ICIJ, CORD19, LDBC, IYP)")
	flag.StringVar(&f.Scenario, "scenario", "", "stream a built-in scenario (or scenario JSON file) as input instead of a graph")
	flag.IntVar(&f.Scale, "scale", 5000, "nodes to generate with -dataset")
	flag.StringVar(&f.Method, "method", "elsh", "clustering method: elsh or minhash")
	flag.Float64Var(&f.Theta, "theta", 0.9, "Jaccard merge threshold")
	flag.IntVar(&f.Batches, "batches", 1, "process the graph in this many random batches")
	flag.Int64Var(&f.Seed, "seed", 1, "random seed")
	flag.IntVar(&f.Depth, "pipeline-depth", 0, "execution engine depth: 1 = serial, >1 = overlapped batches (0 = default)")
	flag.IntVar(&f.Shards, "shards", 0, "partition the stream across N concurrent discovery pipelines and merge their schemas (0/1 = single pipeline, byte-identical to serial)")
	flag.IntVar(&f.Retry, "retry", 0, "retry each transient source fault with exponential backoff, up to this many attempts per batch, then stop the run (0 = no backoff: the fault is re-pulled at once, and the run stops after 100 in a row on one batch)")
	flag.StringVar(&f.Checkpoint, "checkpoint", "", "checkpoint file: save pipeline state after every batch; resume from it when it already exists")
	flag.Float64Var(&f.FaultRate, "fault-rate", 0, "inject seeded transient faults at this per-attempt probability (exercises -retry)")
	flag.IntVar(&f.MemBudgetMB, "mem-budget", 0, "memory budget in MB: bound evidence memory with sketched counters sized to the budget (0 = exact, unbounded)")
	flag.BoolVar(&f.SampleDatatypes, "sample-datatypes", false, "infer property data types from a sample instead of a full scan")
	flag.BoolVar(&f.Participation, "participation", false, "analyze edge participation to refine cardinality lower bounds")
	flag.StringVar(&f.DriftPolicy, "drift-policy", "off", "streaming conformance checking: off, evolve (validate and count, merge as usual), alert (also log violations), quarantine (withhold violating batches from the merge)")
	flag.IntVar(&f.EpochInterval, "epoch-interval", 0, "schema epoch window in batches: snapshot, diff against the previous epoch and rotate the validation target every N batches (0 = default)")
	flag.StringVar(&f.DriftLog, "drift-log", "", "append drift records (classified violations, epoch diffs) to this JSONL file")
	flag.BoolVar(&f.Telemetry, "telemetry", false, "aggregate run metrics and print a summary to stderr")
	flag.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve live metrics at http://ADDR/metrics during the run (JSON; ?format=prometheus for text exposition); implies -telemetry")
	flag.StringVar(&f.TraceOut, "trace-out", "", "stream per-stage spans to this file in Chrome trace format (open in chrome://tracing or Perfetto)")
	var (
		format    = flag.String("format", "pgschema", "output format: pgschema, xsd, json, dot")
		mode      = flag.String("mode", "strict", "PG-Schema mode: strict or loose")
		name      = flag.String("name", "DiscoveredGraphType", "graph type name for PG-Schema output")
		outPath   = flag.String("out", "", "output file (default stdout)")
		selfCheck = flag.Bool("validate", false, "validate the input graph against its own discovered schema and report violations")
	)
	flag.Parse()

	// Output settings are checked before any work: one parsed mode drives
	// both the PG-Schema DDL and -validate.
	pgMode, err := parseMode(*mode)
	if err != nil {
		fatal(err)
	}
	write, err := schemaWriter(*format, pgMode, *name)
	if err != nil {
		fatal(err)
	}
	if f.Scenario != "" && *selfCheck {
		fatal(fmt.Errorf("-validate needs a materialized graph; not available with -scenario"))
	}

	// A registry aggregates metrics (printed at the end and served live with
	// -metrics-addr), a trace writer streams spans.
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
	g, src, err := f.Stream(cfg.Telemetry)
	if err != nil {
		fatal(err)
	}
	opts, err := f.RunOptions()
	if err != nil {
		fatal(err)
	}
	result, err := pghive.Run(src, cfg, opts)
	if err != nil {
		fatal(err)
	}
	for _, s := range result.Skipped {
		fmt.Fprintf(os.Stderr, "batch %d quarantined: %s\n", s.Seq, s.Reason)
	}
	for _, r := range result.Reports {
		fmt.Fprintf(os.Stderr, "batch %d: %d nodes, %d edges, %d+%d clusters in %v (%.0f elem/s), queue wait %v\n",
			r.Batch, r.Nodes, r.Edges, r.NodeClusters, r.EdgeClusters, r.Total(), r.Throughput(), r.Wall-r.Load-r.Total())
	}
	fmt.Fprintf(os.Stderr, "discovered %d node types, %d edge types in %v (+%v post-processing)\n",
		len(result.Def.Nodes), len(result.Def.Edges), result.Discovery, result.PostProcess)
	if d := result.Drift; d != nil {
		fmt.Fprintf(os.Stderr, "drift (%s): %d violations in %d batches (%d quarantined), %d epochs, %d epoch-diff changes\n",
			d.Policy, d.Total(), d.DriftBatches, d.Quarantined, d.Epochs, d.EpochChanges)
	}
	if reg != nil {
		reg.Snapshot().WriteText(os.Stderr)
	}

	if *selfCheck {
		report := pghive.ValidateGraph(g, result.Def, pgMode)
		if report.Valid() {
			fmt.Fprintf(os.Stderr, "validation (%s): OK — %d nodes, %d edges conform\n",
				*mode, report.NodesChecked, report.EdgesChecked)
		} else {
			fmt.Fprintf(os.Stderr, "validation (%s): %d violations\n", *mode, len(report.Violations))
			for i, v := range report.Violations {
				if i == 20 {
					fmt.Fprintf(os.Stderr, "  ... and %d more\n", len(report.Violations)-20)
					break
				}
				fmt.Fprintln(os.Stderr, "  -", v)
			}
		}
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		file, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer file.Close()
		out = file
	}
	if err := write(out, result.Def); err != nil {
		fatal(err)
	}
}

// parseMode parses -mode.
func parseMode(mode string) (pghive.Mode, error) {
	switch mode {
	case "strict":
		return pghive.Strict, nil
	case "loose":
		return pghive.Loose, nil
	default:
		return pghive.Strict, fmt.Errorf("unknown mode %q (want strict or loose)", mode)
	}
}

// schemaWriter resolves -format into the serializer the discovered schema
// is written with.
func schemaWriter(format string, mode pghive.Mode, name string) (func(io.Writer, *pghive.SchemaDef) error, error) {
	switch format {
	case "pgschema":
		return func(w io.Writer, def *pghive.SchemaDef) error {
			return pghive.WritePGSchema(w, def, name, mode)
		}, nil
	case "xsd":
		return pghive.WriteXSD, nil
	case "json":
		return pghive.WriteSchemaJSON, nil
	case "dot":
		return pghive.WriteDOT, nil
	default:
		return nil, fmt.Errorf("unknown format %q (want pgschema, xsd, json, dot)", format)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pghive:", err)
	os.Exit(1)
}
