// Command pghive-serve runs the resident schema service: it ingests a
// property-graph stream through the discovery engine while serving the
// current schema over HTTP at four progressive detail tiers.
//
//	pghive-serve -dataset LDBC -scale 10000 -batches 64 -addr :8080
//	pghive-serve -jsonl graph.jsonl -batches 32 -shards 4 -epoch-interval 8
//	pghive-serve -scenario near-theta -replay-delay 50ms -checkpoint serve.ck
//
// Endpoints:
//
//	GET /schema?detail=summary|types|patterns|full[&type=Name]
//	GET /epochs    — publication history with per-epoch diffs
//	GET /healthz   — liveness + ingest status
//	GET /metrics   — telemetry (JSON; ?format=prometheus for text)
//
// Schema epochs are published copy-on-write at every -epoch-interval
// batches; each (epoch, tier, filter) response is rendered once and served
// as cached bytes until the next epoch. SIGINT/SIGTERM stop the ingest
// gracefully at a batch boundary: the engine writes its final checkpoint
// (-checkpoint), so a restarted server resumes byte-identically. With
// -resident the process keeps serving after ingest completes until the next
// signal; otherwise it exits once the stream is drained (handy for tests
// and scripted runs).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pghive"
	"pghive/internal/core"
	"pghive/internal/datagen"
	"pghive/internal/obs"
	"pghive/internal/pg"
	"pghive/internal/serve"
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "pghive-serve:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		jsonlPath = flag.String("jsonl", "", "input graph in JSON Lines")
		binPath   = flag.String("binary", "", "input graph in binary snapshot format (.pgb)")
		nodesPath = flag.String("nodes", "", "input node CSV (with -edges)")
		edgesPath = flag.String("edges", "", "input edge CSV")
		dataset   = flag.String("dataset", "", "generate a built-in dataset profile instead (POLE, MB6, HET.IO, FIB25, ICIJ, CORD19, LDBC, IYP)")
		scenario  = flag.String("scenario", "", "stream a built-in scenario (or scenario JSON file) as input")
		scale     = flag.Int("scale", 5000, "nodes to generate with -dataset")
		batches   = flag.Int("batches", 16, "split a materialized graph into this many stream batches")
		seed      = flag.Int64("seed", 1, "random seed")
		theta     = flag.Float64("theta", 0.9, "Jaccard merge threshold")
		depth     = flag.Int("pipeline-depth", 0, "execution engine depth: 1 = serial, >1 = overlapped batches (0 = default)")
		shards    = flag.Int("shards", 0, "partition the stream across N concurrent discovery pipelines (0/1 = single pipeline)")
		memBudget = flag.Int("mem-budget", 0, "memory budget in MB: bound evidence memory with sketched counters (0 = exact, unbounded)")
		sample    = flag.Bool("sample-datatypes", false, "infer property data types from a sample instead of a full scan")
		particip  = flag.Bool("participation", false, "analyze edge participation to refine cardinality lower bounds")
		driftPol  = flag.String("drift-policy", "off", "streaming conformance checking: off, evolve, alert, quarantine")
		epochIvl  = flag.Int("epoch-interval", 0, "publish a schema epoch every N batches (0 = default)")
		driftLog  = flag.String("drift-log", "", "append drift records to this JSONL file (needs a -drift-policy)")
		retry     = flag.Int("retry", 0, "retry transient source faults up to this many attempts per batch")
		ckptPath  = flag.String("checkpoint", "", "checkpoint file: save engine state per batch; resume from it when it already exists")
		addr      = flag.String("addr", "127.0.0.1:0", "HTTP listen address (port 0 picks a free port; the bound address is printed)")
		delay     = flag.Duration("replay-delay", 0, "pause this long between stream batches (replay a materialized workload as a live trickle)")
		resident  = flag.Bool("resident", false, "keep serving after ingest completes until SIGINT/SIGTERM")
	)
	flag.Parse()

	cfg := core.Config{
		Seed: *seed, Theta: *theta,
		PipelineDepth: *depth, Shards: *shards, MemBudgetBytes: int64(*memBudget) << 20,
		SampleDatatypes: *sample, Participation: *particip,
		EpochInterval: *epochIvl,
	}
	var err error
	cfg.DriftPolicy, err = core.ParseDriftPolicy(*driftPol)
	if err != nil {
		return err
	}
	if *driftLog != "" {
		if cfg.DriftPolicy == core.DriftOff {
			return fmt.Errorf("-drift-log needs a -drift-policy")
		}
		f, err := os.Create(*driftLog)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.DriftLog = core.NewDriftLog(f)
	}

	src, err := loadSource(*jsonlPath, *binPath, *nodesPath, *edgesPath, *dataset, *scenario, *scale, *batches, *seed)
	if err != nil {
		return err
	}
	if *retry > 0 {
		src = pg.NewRetrySource(src, pg.RetryPolicy{MaxAttempts: *retry, Seed: *seed})
	}
	if *delay > 0 {
		src = serve.NewPaceSource(src, *delay)
	}

	s := serve.NewServer(obs.NewRegistry())
	bound, closer, err := s.ListenAndServe(*addr)
	if err != nil {
		return err
	}
	defer closer.Close()
	fmt.Fprintf(os.Stderr, "serving at http://%s/schema (epochs: /epochs, health: /healthz, metrics: /metrics)\n", bound)

	// Graceful shutdown: the first signal stops the ingest at the next batch
	// boundary (the engine checkpoints per batch, so the last state on disk
	// is current); a second signal, or a signal while resident, exits.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "signal: stopping ingest at next batch boundary")
		s.StopIngest()
		<-sigs
		os.Exit(1)
	}()

	opts := serve.IngestOptions{Config: cfg}
	if *ckptPath != "" {
		ck := core.FileCheckpointer{Path: *ckptPath}
		opts.FT.Checkpoint = ck
		state, ok, err := ck.Load()
		if err != nil {
			return err
		}
		if ok {
			fmt.Fprintf(os.Stderr, "resuming from checkpoint %s\n", *ckptPath)
			opts.Resume = state
		}
	}

	start := time.Now()
	res, err := s.Ingest(src, opts)
	if err != nil {
		return err
	}
	var elements int
	for _, r := range res.Reports {
		elements += r.Nodes + r.Edges
	}
	fmt.Fprintf(os.Stderr, "ingested %d batches (%d elements) in %v: %d node types, %d edge types, epoch %d\n",
		len(res.Reports), elements, time.Since(start).Round(time.Millisecond),
		len(res.Def.Nodes), len(res.Def.Edges), s.Current().ID)

	if *resident {
		fmt.Fprintln(os.Stderr, "ingest done; still serving (signal to exit)")
		sig2 := make(chan os.Signal, 1)
		signal.Notify(sig2, os.Interrupt, syscall.SIGTERM)
		<-sig2
	}
	return nil
}

// loadSource builds the batch stream: a scenario's own phase timeline, or a
// materialized graph split into -batches random batches (the same split the
// batch CLI uses, so a served schema can be diffed against its output).
func loadSource(jsonlPath, binPath, nodesPath, edgesPath, dataset, scenario string, scale, batches int, seed int64) (pg.ErrSource, error) {
	if scenario != "" {
		sc, err := loadScenario(scenario)
		if err != nil {
			return nil, err
		}
		return pg.AsErrSource(sc.Stream(seed)), nil
	}
	g, err := loadGraph(jsonlPath, binPath, nodesPath, edgesPath, dataset, scale, seed)
	if err != nil {
		return nil, err
	}
	if batches < 1 {
		batches = 1
	}
	return pg.AsErrSource(pg.NewSliceSource(g.SplitRandom(batches, seed)...)), nil
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
		var ef *os.File
		if edgesPath != "" {
			ef, err = os.Open(edgesPath)
			if err != nil {
				return nil, err
			}
			defer ef.Close()
		}
		if ef != nil {
			return pghive.ReadCSV(nf, ef)
		}
		return pghive.ReadCSV(nf, nil)
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

// loadScenario resolves a -scenario argument exactly as the batch CLI does:
// a scenario JSON file by suffix or existence, otherwise a built-in name.
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
