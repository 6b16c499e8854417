package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"pghive/internal/core"
	"pghive/internal/datagen"
	"pghive/internal/pg"
)

// FaultPoint is one fault-tolerance measurement: discovery over a stream
// injecting transient faults at the given rate, retried with backoff,
// compared against the fault-free run on the same batches.
type FaultPoint struct {
	Dataset string
	Method  MethodID
	// TransientRate is the per-attempt probability of a transient fault.
	TransientRate float64
	// Retries is how many transient faults the retry layer absorbed.
	Retries int
	// Backoff is the cumulative backoff the retry policy computed (the
	// harness does not actually sleep it, so Elapsed isolates CPU-side
	// retry overhead).
	Backoff time.Duration
	// Elapsed is the wall-clock discovery time under faults.
	Elapsed time.Duration
	// Overhead is Elapsed relative to the fault-free baseline - 1.
	Overhead float64
	// Identical reports whether the finalized schema matched the
	// fault-free run byte-for-byte (it must: transient faults are
	// invisible to the pipeline).
	Identical bool
}

// FaultRates is the default transient-fault sweep.
var FaultRates = []float64{0.1, 0.25, 0.5}

// faultBatches is how many batches each dataset is split into.
const faultBatches = 8

// RunFaults measures the retry overhead of fault-tolerant ingestion: the
// same batch stream is discovered fault-free and under seeded transient
// fault injection (with retry + backoff absorbing every fault), and the
// report records the overhead and verifies output identity — the
// fault-tolerance subsystem's acceptance criterion, as a benchmark.
func RunFaults(w io.Writer, s Settings) ([]FaultPoint, error) {
	s = s.withDefaults()
	profiles := s.profiles()
	if len(s.Datasets) == 0 {
		profiles = []*datagen.Profile{datagen.ProfileByName("LDBC"), datagen.ProfileByName("ICIJ")}
	}
	var points []FaultPoint

	fmt.Fprintln(w, "Faults: retry overhead of transient fault injection (schema must stay identical)")
	tw := newTable(w)
	fmt.Fprintln(tw, "  dataset\tmethod\trate\tretries\tbackoff(ms)\ttotal(ms)\toverhead\tidentical")
	for _, p := range profiles {
		ds := datagen.Generate(p, datagen.Options{Nodes: s.Scale, Seed: s.Seed})
		batches := ds.Graph.SplitRandom(faultBatches, s.Seed)
		for _, m := range []MethodID{ELSH, MinHash} {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Telemetry = s.Telemetry
			cfg.TrackMembers = true
			cfg.PipelineDepth = s.engineDepth()
			if m == MinHash {
				cfg.Method = core.MethodMinHash
			}

			base := core.Discover(pg.NewSliceSource(batches...), cfg)
			baseJSON, err := json.Marshal(base.Def)
			if err != nil {
				return nil, err
			}

			for _, rate := range FaultRates {
				fault := pg.NewFaultSource(pg.AsErrSource(pg.NewSliceSource(batches...)),
					pg.FaultProfile{TransientRate: rate, Seed: s.Seed})
				retry := pg.NewRetrySource(fault, pg.RetryPolicy{
					MaxAttempts: 20,
					Sleep:       func(time.Duration) {}, // count, don't wait
				})
				start := time.Now()
				res, err := core.Run(retry, cfg, core.RunOptions{})
				if err != nil {
					return nil, fmt.Errorf("bench: faults %s/%s rate %.2f: %w", p.Name, m, rate, err)
				}
				elapsed := time.Since(start)
				gotJSON, err := json.Marshal(res.Def)
				if err != nil {
					return nil, err
				}
				retries, backoff := retry.Stats()
				pt := FaultPoint{
					Dataset:       p.Name,
					Method:        m,
					TransientRate: rate,
					Retries:       retries,
					Backoff:       backoff,
					Elapsed:       elapsed,
					Overhead:      float64(elapsed)/float64(base.Discovery) - 1,
					Identical:     bytes.Equal(baseJSON, gotJSON),
				}
				points = append(points, pt)
				fmt.Fprintf(tw, "  %s\t%s\t%.2f\t%d\t%s\t%s\t%+.1f%%\t%t\n",
					p.Name, m, rate, pt.Retries, ms(pt.Backoff), ms(pt.Elapsed),
					pt.Overhead*100, pt.Identical)
			}
		}
	}
	return points, tw.Flush()
}
