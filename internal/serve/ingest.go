package serve

import (
	"fmt"

	"pghive/internal/core"
	"pghive/internal/obs"
	"pghive/internal/pg"
)

// IngestOptions configures a server's ingest run.
type IngestOptions struct {
	// Config is the discovery configuration: the existing engine knobs
	// (Shards, PipelineDepth, MemBudgetBytes, DriftPolicy, EpochInterval, …)
	// select the engine exactly as the batch CLI does. The server installs
	// its own OnEpoch publication hook (chained after any caller-supplied
	// one) and routes Telemetry into its registry.
	Config core.Config
	// Run sets where the ingest checkpoints and the checkpoint it resumes
	// from, as for core.Run.
	Run core.RunOptions
}

// Ingest drains src through core.Run, publishing schema epochs as it goes,
// and blocks until the stream ends (or StopIngest is called). Every engine
// — single pipeline or sharded — publishes through the same
// core.Config.OnEpoch hook, synchronously at a consistent point of the
// stream. The final Result's Def is published as the final epoch, so a
// served detail=full response is then byte-identical to a batch Discover
// run over the same input. Single ingest per server.
func (s *Server) Ingest(src pg.ErrSource, opts IngestOptions) (*core.Result, error) {
	cfg := opts.Config
	cfg.Telemetry = obs.Multi(cfg.Telemetry, s.reg)
	chain := cfg.OnEpoch
	cfg.OnEpoch = func(snap core.EpochSnapshot) {
		if chain != nil {
			chain(snap)
		}
		s.publish(snap.Def, snap.Batches, snap.Seq, snap.Final)
	}
	stop := NewStopSource(src)

	s.mu.Lock()
	if s.ingest == "running" {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: ingest already running")
	}
	s.ingest = "running"
	s.stopper = stop
	s.mu.Unlock()

	res, err := core.Run(stop, cfg, opts.Run)

	s.mu.Lock()
	if err != nil {
		s.ingest, s.ingestEr = "failed", err.Error()
	} else {
		s.ingest = "done"
		for _, r := range res.Reports {
			s.elements += uint64(r.Nodes + r.Edges)
		}
	}
	s.mu.Unlock()
	if err == nil {
		// The stream ended at the last published epoch's frontier — either
		// the engine's final epoch or a window boundary, whose epoch this
		// re-stamps as final — or, before any epoch, after every batch the
		// source delivered.
		batches := int(stop.delivered.Load())
		seq := batches - 1
		if e := s.Current(); e.ID > 0 {
			batches, seq = e.Batches, e.Seq
		}
		s.publish(res.Def, batches, seq, true)
	}
	return res, err
}

// StopIngest asks the running ingest to stop at the next batch boundary:
// the source reports end-of-stream, the engine writes its final checkpoint
// and Ingest returns with the partial (but internally consistent) schema.
func (s *Server) StopIngest() {
	s.mu.Lock()
	st := s.stopper
	s.mu.Unlock()
	if st != nil {
		st.Stop()
	}
}
