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
	// The history is rows only: a superseded epoch's Def and render cache
	// are not referenced from here, so they go once no reader holds them.
	// publish appends a row and stores cur under mu, so a reader holding
	// mu sees cur's ID equal to the last row's (0 before the first epoch).
	mu       sync.Mutex
	epochs   []EpochInfo
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
	s.cur.Store(&Epoch{EpochInfo: EpochInfo{Published: s.start}, Def: &schema.Def{}, instr: s.instr})
	return s
}

// Registry returns the server's telemetry registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Current returns the currently published epoch (never nil).
func (s *Server) Current() *Epoch { return s.cur.Load() }

// Epochs returns a copy of the published epoch history's rows, oldest
// first (the boot placeholder is not part of the history). Only Current
// still has a Def and a render cache.
func (s *Server) Epochs() []EpochInfo {
	hist, _ := s.history()
	return hist
}

// history copies the rows and reads the current epoch's ID under one hold
// of mu, so the two agree.
func (s *Server) history() ([]EpochInfo, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]EpochInfo(nil), s.epochs...), s.cur.Load().ID
}

// publish stores one epoch core's clock handed over: its number, frontier,
// finality, Def and changes, as given. The final re-send of an epoch (same
// number) replaces the last row; any other epoch appends one. The new epoch
// becomes current and the superseded one is left as it was, for whichever
// readers still hold it. Returns the stored epoch.
func (s *Server) publish(snap core.EpochSnapshot) *Epoch {
	e := &Epoch{
		EpochInfo: EpochInfo{
			ID: snap.Epoch, Batches: snap.Batches, Seq: snap.Seq, Final: snap.Final,
			Published: time.Now(), Diff: schema.NewDiffReport(snap.Changes),
		},
		Def: snap.Def, instr: s.instr,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.epochs); n > 0 && s.epochs[n-1].ID == e.ID {
		s.epochs[n-1] = e.EpochInfo
	} else {
		s.epochs = append(s.epochs, e.EpochInfo)
	}
	s.cur.Store(e)
	s.instr.Gauge(obs.GaugeServeEpoch, uint64(e.ID))
	return e
}
