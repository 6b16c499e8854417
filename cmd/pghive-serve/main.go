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
	"syscall"
	"time"

	"pghive/cmd/internal/cli"
	"pghive/internal/obs"
	"pghive/internal/serve"
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "pghive-serve:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	// The server always clusters with ELSH: it has no -method flag.
	f := cli.Flags{Method: "elsh"}
	flag.StringVar(&f.JSONL, "jsonl", "", "input graph in JSON Lines")
	flag.StringVar(&f.Binary, "binary", "", "input graph in binary snapshot format (.pgb)")
	flag.StringVar(&f.Nodes, "nodes", "", "input node CSV (with -edges)")
	flag.StringVar(&f.Edges, "edges", "", "input edge CSV")
	flag.StringVar(&f.Dataset, "dataset", "", "generate a built-in dataset profile instead (POLE, MB6, HET.IO, FIB25, ICIJ, CORD19, LDBC, IYP)")
	flag.StringVar(&f.Scenario, "scenario", "", "stream a built-in scenario (or scenario JSON file) as input")
	flag.IntVar(&f.Scale, "scale", 5000, "nodes to generate with -dataset")
	flag.IntVar(&f.Batches, "batches", 16, "split a materialized graph into this many stream batches")
	flag.Int64Var(&f.Seed, "seed", 1, "random seed")
	flag.Float64Var(&f.Theta, "theta", 0.9, "Jaccard merge threshold")
	flag.IntVar(&f.Depth, "pipeline-depth", 0, "execution engine depth: 1 = serial, >1 = overlapped batches (0 = default)")
	flag.IntVar(&f.Shards, "shards", 0, "partition the stream across N concurrent discovery pipelines (0/1 = single pipeline)")
	flag.IntVar(&f.MemBudgetMB, "mem-budget", 0, "memory budget in MB: bound evidence memory with sketched counters (0 = exact, unbounded)")
	flag.BoolVar(&f.SampleDatatypes, "sample-datatypes", false, "infer property data types from a sample instead of a full scan")
	flag.BoolVar(&f.Participation, "participation", false, "analyze edge participation to refine cardinality lower bounds")
	flag.StringVar(&f.DriftPolicy, "drift-policy", "off", "streaming conformance checking: off, evolve, alert, quarantine")
	flag.IntVar(&f.EpochInterval, "epoch-interval", 0, "publish a schema epoch every N batches (0 = default)")
	flag.StringVar(&f.DriftLog, "drift-log", "", "append drift records to this JSONL file (needs a -drift-policy)")
	flag.IntVar(&f.Retry, "retry", 0, "retry each transient source fault with exponential backoff, up to this many attempts per batch, then stop the run (0 = no backoff: the fault is re-pulled at once, and the run stops after 100 in a row on one batch)")
	flag.StringVar(&f.Checkpoint, "checkpoint", "", "checkpoint file: save engine state per batch; resume from it when it already exists")
	var (
		addr     = flag.String("addr", "127.0.0.1:0", "HTTP listen address (port 0 picks a free port; the bound address is printed)")
		delay    = flag.Duration("replay-delay", 0, "pause this long between stream batches (replay a materialized workload as a live trickle)")
		resident = flag.Bool("resident", false, "keep serving after ingest completes until SIGINT/SIGTERM")
	)
	flag.Parse()

	cfg, closeLog, err := f.Config(nil)
	if err != nil {
		return err
	}
	defer closeLog()
	// The stream is the batch CLI's: the same flags give the same batches,
	// so the served schema can be diffed against pghive's output.
	_, src, err := f.Stream(nil)
	if err != nil {
		return err
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
	if opts.Run, err = f.RunOptions(); err != nil {
		return err
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
