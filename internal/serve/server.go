package serve

import (
	"sync"
	"sync/atomic"
	"time"

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

// publish installs def as the next epoch. Monotone and idempotent: a
// snapshot that does not advance the batch frontier is dropped, and a final
// publish over an identical frontier only re-stamps finality (the stream
// ended exactly on an epoch boundary). Returns the current epoch after the
// call.
func (s *Server) publish(def *schema.Def, batches, seq int, final bool) *Epoch {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.cur.Load()
	if prev.ID > 0 && batches < prev.Batches {
		return prev
	}
	if prev.ID > 0 && batches == prev.Batches && !final {
		return prev
	}
	if prev.ID > 0 && batches == prev.Batches && final && prev.Final {
		return prev
	}
	if prev.ID > 0 && batches == prev.Batches && final {
		// Finality upgrade: the stream ended exactly on an epoch boundary, so
		// the schema already published IS the final one — re-stamp it in
		// place (fresh Epoch, same ID and diff) instead of appending a
		// duplicate frontier to the history.
		e := &Epoch{
			ID: prev.ID, Batches: batches, Seq: seq, Final: true,
			Published: prev.Published, Def: def, Diff: prev.Diff, instr: s.instr,
		}
		s.epochs[len(s.epochs)-1] = e
		s.cur.Store(e)
		return e
	}
	var diff schema.DiffReport
	if prev.ID > 0 {
		diff = schema.NewDiffReport(schema.Diff(prev.Def, def))
	}
	e := &Epoch{
		ID: prev.ID + 1, Batches: batches, Seq: seq, Final: final,
		Published: time.Now(), Def: def, Diff: diff, instr: s.instr,
	}
	s.epochs = append(s.epochs, e)
	s.cur.Store(e)
	s.instr.Gauge(obs.GaugeServeEpoch, uint64(e.ID))
	return e
}
