// Command pghive-bench regenerates the paper's tables and figures on the
// synthetic dataset profiles.
//
// Usage:
//
//	pghive-bench [-exp all|table1|table2|fig3|...] [-scale N] [-seed S] [-datasets POLE,LDBC]
//
// The -cpuprofile and -memprofile flags write pprof profiles of the run
// for digging into where discovery time and allocations go.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"pghive/cmd/internal/cli"
	"pghive/internal/bench"
)

func main() {
	if err := mainErr(); err != nil {
		fatal(err)
	}
}

// mainErr holds the whole run so the profiling defers flush before the
// process exits — os.Exit in main would silently drop them.
func mainErr() error {
	exp := flag.String("exp", "all", "experiment to run: all or one of "+strings.Join(bench.ExperimentNames(), ", "))
	scale := flag.Int("scale", 2000, "generated nodes per dataset")
	seed := flag.Int64("seed", 1, "random seed")
	datasets := flag.String("datasets", "", "comma-separated dataset filter (default: all eight)")
	depth := flag.Int("pipeline-depth", 0, "execution engine depth for PG-HIVE runs: 0/1 = serial, >1 = overlapped batches")
	shards := flag.Int("shards", 0, "narrow the shards experiment's sweep to {1, N} discovery shards (0 = full 1/2/4/8 sweep)")
	csvDir := flag.String("csvdir", "", "also write the CSV of each experiment -exp runs into this directory (table1 and table2 have none)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	var f cli.Flags
	flag.BoolVar(&f.Telemetry, "telemetry", false, "aggregate metrics over every PG-HIVE run and print a summary to stderr at exit")
	flag.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve live metrics at http://ADDR/metrics while the harness runs; implies -telemetry")
	flag.StringVar(&f.TraceOut, "trace-out", "", "stream per-stage spans of every PG-HIVE run to this file in Chrome trace format")
	flag.Parse()

	settings := bench.Settings{Scale: *scale, Seed: *seed, PipelineDepth: *depth, Shards: *shards}
	if *datasets != "" {
		settings.Datasets = strings.Split(*datasets, ",")
	}
	// Host parallelism up front: every timing below is only interpretable
	// against it (a 1-CPU host cannot show multi-shard wall-clock wins).
	fmt.Fprintf(os.Stderr, "host: %d CPUs, GOMAXPROCS %d, %s, shards sweep %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), shardsDesc(*shards))

	// One registry/trace spans the whole harness run, aggregated across
	// every PG-HIVE discovery it performs (baselines are not instrumented).
	reg, sink, stopTelemetry, err := f.StartTelemetry()
	if err != nil {
		return err
	}
	defer stopTelemetry()
	settings.Telemetry = sink
	if reg != nil {
		defer func() { reg.Snapshot().WriteText(os.Stderr) }()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	runErr := run(*exp, *csvDir, settings)
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return runErr
}

func run(exp, csvDir string, settings bench.Settings) error {
	if exp == "all" {
		return bench.RunAll(os.Stdout, csvDir, settings)
	}
	for _, e := range bench.Experiments {
		if e.Name == exp {
			return e.Run(os.Stdout, csvDir, settings)
		}
	}
	return fmt.Errorf("unknown experiment %q (have: all, %s)", exp, strings.Join(bench.ExperimentNames(), ", "))
}

func shardsDesc(n int) string {
	if n > 0 {
		return fmt.Sprintf("{1,%d}", n)
	}
	return "default"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pghive-bench:", err)
	os.Exit(1)
}
