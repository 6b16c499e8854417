package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"pghive/internal/core"
	"pghive/internal/obs"
	"pghive/internal/schema"
)

// Server is the resident schema service: one writer (the ingest loop)
// publishes epochs, any number of readers load the current epoch with a
// single atomic pointer read. The zero value is not usable; construct with
// NewServer.
type Server struct {
	reg   *obs.Registry
	instr obs.Instr
	start time.Time

	// cur is the copy-on-write publication point: readers atomically load
	// the current epoch and work entirely inside that immutable snapshot.
	cur atomic.Pointer[Epoch]

	// inflight tracks /schema requests mid-flight (exported as a gauge).
	inflight atomic.Int64

	// Writer-side state: the publication history behind /epochs and the
	// ingest outcome behind /healthz. Never touched by the /schema path.
	mu       sync.Mutex
	epochs   []*Epoch
	ingest   string // "idle", "running", "done", "failed"
	ingestEr string
	elements uint64

	stopper *StopSource
}

// NewServer builds a server around a telemetry registry (nil allocates a
// fresh one); the registry backs /metrics and receives the read-path
// counters.
func NewServer(reg *obs.Registry) *Server {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{reg: reg, instr: obs.NewInstr(reg), start: time.Now(), ingest: "idle"}
	// Boot epoch: an empty schema, so readers get valid JSON from the very
	// first request instead of a 503 while the first window fills.
	s.cur.Store(&Epoch{ID: 0, Published: s.start, Def: &schema.Def{}, instr: s.instr})
	return s
}

// Registry returns the server's telemetry registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Current returns the currently published epoch (never nil).
func (s *Server) Current() *Epoch { return s.cur.Load() }

// Epochs returns the published epoch history, oldest first (the boot
// placeholder is not part of the history).
func (s *Server) Epochs() []*Epoch {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Epoch(nil), s.epochs...)
}

// publish stores one epoch core's clock handed over: its number, frontier,
// finality, Def and changes, as given. The final re-send of an epoch (same
// number) replaces the last one; any other epoch is appended. Returns the
// stored epoch.
func (s *Server) publish(snap core.EpochSnapshot) *Epoch {
	e := &Epoch{
		ID: snap.Epoch, Batches: snap.Batches, Seq: snap.Seq, Final: snap.Final,
		Published: time.Now(), Def: snap.Def, Diff: schema.NewDiffReport(snap.Changes),
		instr: s.instr,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.epochs); n > 0 && s.epochs[n-1].ID == e.ID {
		s.epochs[n-1] = e
	} else {
		s.epochs = append(s.epochs, e)
	}
	s.cur.Store(e)
	s.instr.Gauge(obs.GaugeServeEpoch, uint64(e.ID))
	return e
}
