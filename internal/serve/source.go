package serve

import (
	"sync/atomic"
	"time"

	"pghive/internal/pg"
)

// StopSource wraps a fallible batch source with a graceful stop switch:
// after Stop the source reports end-of-stream, so the engine finishes the
// in-flight batches, writes its last checkpoint and finalizes cleanly. A
// restarted server resumes from that checkpoint byte-identically — the
// batches already folded in are skipped, the rest replay.
type StopSource struct {
	src     pg.ErrSource
	stopped atomic.Bool
	// delivered counts the good batches handed to the engine — the source
	// batches the published epoch frontiers count.
	delivered atomic.Int64
}

// NewStopSource wraps src.
func NewStopSource(src pg.ErrSource) *StopSource { return &StopSource{src: src} }

// Next pulls the next batch, or reports end-of-stream once stopped.
func (s *StopSource) Next() (*pg.Batch, error) {
	if s.stopped.Load() {
		return nil, nil
	}
	b, err := s.src.Next()
	if b != nil && err == nil {
		s.delivered.Add(1)
	}
	return b, err
}

// Stop makes every subsequent Next report end-of-stream. Safe to call from
// any goroutine, any number of times.
func (s *StopSource) Stop() { s.stopped.Store(true) }

// Stopped reports whether Stop was called.
func (s *StopSource) Stopped() bool { return s.stopped.Load() }

// PaceSource throttles a batch stream: every pull after the first sleeps
// for the configured delay, so a pre-materialized workload replays as a
// live trickle and the server stays observably resident (demos, soak).
type PaceSource struct {
	src    pg.ErrSource
	delay  time.Duration
	pulled bool
}

// NewPaceSource wraps src with a fixed inter-batch delay (≤ 0 returns src's
// batches unthrottled).
func NewPaceSource(src pg.ErrSource, delay time.Duration) *PaceSource {
	return &PaceSource{src: src, delay: delay}
}

// Next pulls the next batch after the pacing delay.
func (p *PaceSource) Next() (*pg.Batch, error) {
	if p.pulled && p.delay > 0 {
		time.Sleep(p.delay)
	}
	p.pulled = true
	return p.src.Next()
}
