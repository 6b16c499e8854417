// Package cli is the front door of the discovery binaries. pghive,
// pghive-serve and pghive-soak each declare their own flags into one Flags
// value, and Flags turns them into what core.Run takes: a core.Config that
// starts from core.DefaultConfig(), the batch stream, and the checkpoint to
// save to and resume from. The same flags therefore give the same schema
// from every binary.
package cli

import (
	"fmt"
	"io"
	"os"
	"strings"

	"pghive/internal/core"
	"pghive/internal/datagen"
	"pghive/internal/obs"
	"pghive/internal/pg"
)

// Flags holds the flag values the binaries share. A binary registers only
// the flags it offers; the rest keep their zero values, except Method,
// which must name a clustering method.
type Flags struct {
	// Input: a graph file (Binary, JSONL, or Nodes with optional Edges), a
	// generated Dataset profile of Scale nodes, or a Scenario. A graph is
	// split into Batches random batches.
	JSONL, Binary, Nodes, Edges string
	Dataset                     string
	Scale                       int
	Scenario                    string
	Batches                     int
	Seed                        int64

	// Engine: see core.Config. MemBudgetMB is in MiB.
	Method          string
	Theta           float64
	Depth, Shards   int
	MemBudgetMB     int
	SampleDatatypes bool
	Participation   bool
	DriftPolicy     string
	EpochInterval   int
	DriftLog        string

	// Faults: FaultRate injects seeded transient faults, Retry absorbs
	// them with backoff. Checkpoint is the file the run saves its state to
	// after every batch, and resumes from when it exists.
	FaultRate  float64
	Retry      int
	Checkpoint string

	// Telemetry: aggregate metrics in a registry, serve them live at
	// MetricsAddr, stream spans to TraceOut.
	Telemetry   bool
	MetricsAddr string
	TraceOut    string
}

// Config returns core.DefaultConfig() with the engine flags applied and
// telemetry as its sink. It opens the drift log, if any: call closeLog once
// the run is over.
func (f *Flags) Config(telemetry obs.Sink) (cfg core.Config, closeLog func(), err error) {
	cfg = core.DefaultConfig()
	switch f.Method {
	case "elsh":
		cfg.Method = core.MethodELSH
	case "minhash":
		cfg.Method = core.MethodMinHash
	default:
		return cfg, nil, fmt.Errorf("unknown method %q (want elsh or minhash)", f.Method)
	}
	cfg.Seed = f.Seed
	cfg.Theta = f.Theta
	cfg.PipelineDepth = f.Depth
	cfg.Shards = f.Shards
	cfg.MemBudgetBytes = int64(f.MemBudgetMB) << 20
	cfg.SampleDatatypes = f.SampleDatatypes
	cfg.Participation = f.Participation
	cfg.EpochInterval = f.EpochInterval
	cfg.Telemetry = telemetry
	if cfg.DriftPolicy, err = core.ParseDriftPolicy(f.DriftPolicy); err != nil {
		return cfg, nil, err
	}
	closeLog = func() {}
	if f.DriftLog != "" {
		if cfg.DriftPolicy == core.DriftOff {
			return cfg, nil, fmt.Errorf("-drift-log needs a -drift-policy")
		}
		file, err := os.Create(f.DriftLog)
		if err != nil {
			return cfg, nil, err
		}
		cfg.DriftLog = core.NewDriftLog(file)
		closeLog = func() { file.Close() }
	}
	return cfg, closeLog, nil
}

// Stream loads the input and builds the batch stream discovery runs over:
// a scenario's own phase timeline, or the graph split into max(Batches, 1)
// random batches (one batch keeps the graph's element order). FaultRate and
// Retry wrap it, the retry layer reporting to telemetry. The graph is nil
// for a scenario.
func (f *Flags) Stream(telemetry obs.Sink) (*pg.Graph, pg.ErrSource, error) {
	var g *pg.Graph
	var src pg.ErrSource
	if f.Scenario != "" {
		sc, err := LoadScenario(f.Scenario)
		if err != nil {
			return nil, nil, err
		}
		src = pg.AsErrSource(sc.Stream(f.Seed))
	} else {
		var err error
		if g, err = f.graph(); err != nil {
			return nil, nil, err
		}
		src = pg.AsErrSource(pg.NewSliceSource(g.SplitRandom(max(f.Batches, 1), f.Seed)...))
	}
	if f.FaultRate > 0 {
		src = pg.NewFaultSource(src, pg.FaultProfile{TransientRate: f.FaultRate, Seed: f.Seed})
	}
	if f.Retry > 0 {
		rs := pg.NewRetrySource(src, pg.RetryPolicy{MaxAttempts: f.Retry, Seed: f.Seed})
		rs.Instrument(telemetry)
		src = rs
	}
	return g, src, nil
}

// graph loads the input graph.
func (f *Flags) graph() (*pg.Graph, error) {
	switch {
	case f.Binary != "":
		file, err := os.Open(f.Binary)
		if err != nil {
			return nil, err
		}
		defer file.Close()
		return pg.ReadBinary(file)
	case f.JSONL != "":
		file, err := os.Open(f.JSONL)
		if err != nil {
			return nil, err
		}
		defer file.Close()
		return pg.ReadJSONL(file)
	case f.Nodes != "":
		nodes, err := os.Open(f.Nodes)
		if err != nil {
			return nil, err
		}
		defer nodes.Close()
		var edges io.Reader
		if f.Edges != "" {
			file, err := os.Open(f.Edges)
			if err != nil {
				return nil, err
			}
			defer file.Close()
			edges = file
		}
		return pg.ReadCSV(nodes, edges)
	case f.Dataset != "":
		p := datagen.ProfileByName(f.Dataset)
		if p == nil {
			return nil, fmt.Errorf("unknown dataset %q", f.Dataset)
		}
		return datagen.Generate(p, datagen.Options{Nodes: f.Scale, Seed: f.Seed}).Graph, nil
	default:
		return nil, fmt.Errorf("no input: pass -jsonl, -binary, -nodes, -dataset, or -scenario")
	}
}

// LoadScenario resolves a -scenario argument: a path to a scenario JSON
// file (by suffix or by existing on disk), otherwise a built-in name.
func LoadScenario(arg string) (*datagen.Scenario, error) {
	if strings.HasSuffix(arg, ".json") {
		file, err := os.Open(arg)
		if err != nil {
			return nil, err
		}
		defer file.Close()
		return datagen.ReadScenarioJSON(file)
	}
	if sc := datagen.ScenarioByName(arg); sc != nil {
		return sc, nil
	}
	if file, err := os.Open(arg); err == nil {
		defer file.Close()
		return datagen.ReadScenarioJSON(file)
	}
	return nil, fmt.Errorf("unknown scenario %q (no such built-in or file)", arg)
}

// RunOptions resolves Checkpoint: the run saves its state to the file after
// every batch and, when the file already exists, resumes from it (announced
// on stderr).
func (f *Flags) RunOptions() (core.RunOptions, error) {
	var opts core.RunOptions
	if f.Checkpoint == "" {
		return opts, nil
	}
	ck := core.FileCheckpointer{Path: f.Checkpoint}
	opts.Checkpoint = ck
	state, ok, err := ck.Load()
	if err != nil {
		return opts, err
	}
	if ok {
		fmt.Fprintf(os.Stderr, "resuming from checkpoint %s\n", f.Checkpoint)
		opts.Resume = state
	}
	return opts, nil
}

// StartTelemetry wires the telemetry flags: a registry when Telemetry or
// MetricsAddr asks for one, served live at MetricsAddr, and a Chrome-trace
// writer to TraceOut. sink fans out to both (nil when neither is asked
// for); stop closes the metrics listener and terminates the trace.
func (f *Flags) StartTelemetry() (reg *obs.Registry, sink obs.Sink, stop func(), err error) {
	var sinks []obs.Sink
	var closers []io.Closer
	stop = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i].Close()
		}
	}
	if f.Telemetry || f.MetricsAddr != "" {
		reg = obs.NewRegistry()
		sinks = append(sinks, reg)
	}
	if f.MetricsAddr != "" {
		addr, closer, err := obs.Serve(f.MetricsAddr, reg)
		if err != nil {
			return nil, nil, stop, err
		}
		closers = append(closers, closer)
		fmt.Fprintf(os.Stderr, "metrics at http://%s/metrics\n", addr)
	}
	if f.TraceOut != "" {
		file, err := os.Create(f.TraceOut)
		if err != nil {
			return nil, nil, stop, err
		}
		tw := obs.NewTraceWriter(file)
		closers = append(closers, tw)
		sinks = append(sinks, tw)
	}
	return reg, obs.Multi(sinks...), stop, nil
}
