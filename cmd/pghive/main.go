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
	"strings"

	"pghive"
	"pghive/internal/datagen"
)

func main() {
	var (
		jsonlPath = flag.String("jsonl", "", "input graph in JSON Lines")
		binPath   = flag.String("binary", "", "input graph in binary snapshot format (.pgb)")
		nodesPath = flag.String("nodes", "", "input node CSV (with -edges)")
		edgesPath = flag.String("edges", "", "input edge CSV")
		dataset   = flag.String("dataset", "", "generate a built-in dataset profile instead (POLE, MB6, HET.IO, FIB25, ICIJ, CORD19, LDBC, IYP)")
		scenario  = flag.String("scenario", "", "stream a built-in scenario (or scenario JSON file) as input instead of a graph")
		scale     = flag.Int("scale", 5000, "nodes to generate with -dataset")
		method    = flag.String("method", "elsh", "clustering method: elsh or minhash")
		theta     = flag.Float64("theta", 0.9, "Jaccard merge threshold")
		batches   = flag.Int("batches", 1, "process the graph in this many random batches")
		format    = flag.String("format", "pgschema", "output format: pgschema, xsd, json, dot")
		mode      = flag.String("mode", "strict", "PG-Schema mode: strict or loose")
		name      = flag.String("name", "DiscoveredGraphType", "graph type name for PG-Schema output")
		outPath   = flag.String("out", "", "output file (default stdout)")
		seed      = flag.Int64("seed", 1, "random seed")
		depth     = flag.Int("pipeline-depth", 0, "execution engine depth: 1 = serial, >1 = overlapped batches (0 = default)")
		shards    = flag.Int("shards", 0, "partition the stream across N concurrent discovery pipelines and merge their schemas (0/1 = single pipeline, byte-identical to serial)")
		retry     = flag.Int("retry", 0, "retry transient source faults up to this many attempts per batch (0 = fail fast)")
		ckptPath  = flag.String("checkpoint", "", "checkpoint file: save pipeline state after every batch; resume from it when it already exists")
		faultRate = flag.Float64("fault-rate", 0, "inject seeded transient faults at this per-attempt probability (exercises -retry)")
		memBudget = flag.Int("mem-budget", 0, "memory budget in MB: bound evidence memory with sketched counters sized to the budget (0 = exact, unbounded)")
		sample    = flag.Bool("sample-datatypes", false, "infer property data types from a sample instead of a full scan")
		particip  = flag.Bool("participation", false, "analyze edge participation to refine cardinality lower bounds")
		selfCheck = flag.Bool("validate", false, "validate the input graph against its own discovered schema and report violations")
		driftPol  = flag.String("drift-policy", "off", "streaming conformance checking: off, evolve (validate and count, merge as usual), alert (also log violations), quarantine (withhold violating batches from the merge)")
		epochIvl  = flag.Int("epoch-interval", 0, "schema epoch window in batches: snapshot, diff against the previous epoch and rotate the validation target every N batches (0 = default)")
		driftLog  = flag.String("drift-log", "", "append drift records (classified violations, epoch diffs) to this JSONL file")
		telemetry = flag.Bool("telemetry", false, "aggregate run metrics and print a summary to stderr")
		metrics   = flag.String("metrics-addr", "", "serve live metrics at http://ADDR/metrics during the run (JSON; ?format=prometheus for text exposition); implies -telemetry")
		traceOut  = flag.String("trace-out", "", "stream per-stage spans to this file in Chrome trace format (open in chrome://tracing or Perfetto)")
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

	var g *pghive.Graph
	if *scenario == "" {
		g, err = loadGraph(*jsonlPath, *binPath, *nodesPath, *edgesPath, *dataset, *scale, *seed)
		if err != nil {
			fatal(err)
		}
	} else if *selfCheck {
		fatal(fmt.Errorf("-validate needs a materialized graph; not available with -scenario"))
	}

	// Telemetry wiring: a registry aggregates metrics (printed at the end
	// and served live with -metrics-addr), a trace writer streams spans.
	var reg *pghive.TelemetryRegistry
	var sinks []pghive.TelemetrySink
	if *telemetry || *metrics != "" {
		reg = pghive.NewTelemetryRegistry()
		sinks = append(sinks, reg)
	}
	if *metrics != "" {
		addr, closer, err := pghive.ServeTelemetry(*metrics, reg)
		if err != nil {
			fatal(err)
		}
		defer closer.Close()
		fmt.Fprintf(os.Stderr, "metrics at http://%s/metrics\n", addr)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		tw := pghive.NewTraceWriter(f)
		defer tw.Close()
		sinks = append(sinks, tw)
	}

	cfg := pghive.DefaultConfig()
	cfg.Seed = *seed
	cfg.Theta = *theta
	cfg.SampleDatatypes = *sample
	cfg.Participation = *particip
	cfg.PipelineDepth = *depth
	cfg.Shards = *shards
	cfg.MemBudgetBytes = int64(*memBudget) << 20
	cfg.Telemetry = pghive.TelemetryMulti(sinks...)
	cfg.DriftPolicy, err = pghive.ParseDriftPolicy(*driftPol)
	if err != nil {
		fatal(err)
	}
	cfg.EpochInterval = *epochIvl
	if *driftLog != "" {
		if cfg.DriftPolicy == pghive.DriftOff {
			fatal(fmt.Errorf("-drift-log needs a -drift-policy"))
		}
		f, err := os.Create(*driftLog)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cfg.DriftLog = pghive.NewDriftLog(f)
	}
	switch *method {
	case "elsh":
		cfg.Method = pghive.MethodELSH
	case "minhash":
		cfg.Method = pghive.MethodMinHash
	default:
		fatal(fmt.Errorf("unknown method %q (want elsh or minhash)", *method))
	}

	var result *pghive.Result
	switch {
	case *scenario != "":
		sc, err := loadScenario(*scenario)
		if err != nil {
			fatal(err)
		}
		result, err = discoverFT(pghive.AsErrSource(sc.Stream(*seed)), cfg, *seed, *retry, *ckptPath, *faultRate)
		if err != nil {
			fatal(err)
		}
	case *retry > 0 || *ckptPath != "" || *faultRate > 0:
		src := pghive.AsErrSource(pghive.NewSliceSource(g.SplitRandom(max(*batches, 1), *seed)...))
		result, err = discoverFT(src, cfg, *seed, *retry, *ckptPath, *faultRate)
		if err != nil {
			fatal(err)
		}
	case *batches > 1 || cfg.Shards > 1:
		result = pghive.DiscoverSharded(pghive.NewSliceSource(g.SplitRandom(max(*batches, 1), *seed)...), cfg)
	default:
		result = pghive.Discover(g, cfg)
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
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	if err := write(out, result.Def); err != nil {
		fatal(err)
	}
}

// discoverFT runs discovery through the fault-tolerant path: the batch
// stream is treated as fallible, transient faults are retried with backoff,
// poisoned batches are quarantined, and — with -checkpoint — the pipeline
// state is persisted after every batch so a killed run resumes where it
// stopped (the finalized schema is byte-identical to an uninterrupted run).
func discoverFT(src pghive.ErrSource, cfg pghive.Config, seed int64, retry int, ckptPath string, faultRate float64) (*pghive.Result, error) {
	if faultRate > 0 {
		src = pghive.NewFaultSource(src, pghive.FaultProfile{TransientRate: faultRate, Seed: seed})
	}
	if retry > 0 {
		rs := pghive.NewRetrySource(src, pghive.RetryPolicy{MaxAttempts: retry, Seed: seed})
		rs.Instrument(cfg.Telemetry)
		src = rs
	}
	var opts pghive.FTOptions
	if ckptPath != "" {
		ck := pghive.FileCheckpointer{Path: ckptPath}
		opts.Checkpoint = ck
		state, ok, err := ck.Load()
		if err != nil {
			return nil, err
		}
		if ok {
			fmt.Fprintf(os.Stderr, "resuming from checkpoint %s\n", ckptPath)
			return pghive.ResumeDiscoverShardedFT(state, src, cfg, opts)
		}
	}
	return pghive.DiscoverShardedFT(src, cfg, opts)
}

func loadGraph(jsonlPath, binPath, nodesPath, edgesPath, dataset string, scale int, seed int64) (*pghive.Graph, error) {
	switch {
	case binPath != "":
		f, err := os.Open(binPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return pghive.ReadGraphBinary(f)
	case jsonlPath != "":
		f, err := os.Open(jsonlPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return pghive.ReadJSONL(f)
	case nodesPath != "":
		nf, err := os.Open(nodesPath)
		if err != nil {
			return nil, err
		}
		defer nf.Close()
		var edges io.Reader
		if edgesPath != "" {
			ef, err := os.Open(edgesPath)
			if err != nil {
				return nil, err
			}
			defer ef.Close()
			edges = ef
		}
		return pghive.ReadCSV(nf, edges)
	case dataset != "":
		p := datagen.ProfileByName(dataset)
		if p == nil {
			return nil, fmt.Errorf("unknown dataset %q", dataset)
		}
		return datagen.Generate(p, datagen.Options{Nodes: scale, Seed: seed}).Graph, nil
	default:
		return nil, fmt.Errorf("no input: pass -jsonl, -binary, -nodes, -dataset, or -scenario")
	}
}

// loadScenario resolves a -scenario argument: a path to a scenario JSON
// file (by suffix or by existing on disk), otherwise a built-in name.
func loadScenario(arg string) (*datagen.Scenario, error) {
	if strings.HasSuffix(arg, ".json") {
		f, err := os.Open(arg)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return datagen.ReadScenarioJSON(f)
	}
	if sc := datagen.ScenarioByName(arg); sc != nil {
		return sc, nil
	}
	if f, err := os.Open(arg); err == nil {
		defer f.Close()
		return datagen.ReadScenarioJSON(f)
	}
	return nil, fmt.Errorf("unknown scenario %q (no such built-in or file)", arg)
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
