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
	csvDir := flag.String("csvdir", "", "also write the CSV of each experiment -exp runs into this directory (table1 and table2 have none)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	settings := bench.Settings{Scale: *scale, Seed: *seed}
	if *datasets != "" {
		settings.Datasets = strings.Split(*datasets, ",")
	}
	// Host parallelism up front: every timing below is only interpretable
	// against it.
	fmt.Fprintf(os.Stderr, "host: %d CPUs, GOMAXPROCS %d, %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pghive-bench:", err)
	os.Exit(1)
}
