package pg

import (
	"errors"
	"fmt"
	"time"

	"pghive/internal/obs"
)

// Fault-tolerant ingestion: the fallible source interface and the fault
// model the discovery pipeline degrades under.
//
// A batch stream can fail three ways:
//
//   - Transiently (a flaky loader, a network hiccup): the delivery attempt
//     fails but a retry can succeed. Modeled by TransientError; RetrySource
//     absorbs these with exponential backoff.
//   - Poisoned batch (truncated file, corrupted records): the batch itself
//     is unusable but the stream continues. Modeled by CorruptBatchError;
//     the pipeline quarantines the batch (Result.Skipped) and keeps going —
//     the schema stays monotone, it just misses that batch's evidence.
//   - Permanently (the backing store died): any other error. The pipeline
//     aborts; with checkpointing enabled the run resumes from the last
//     checkpoint instead of starting over.

// ErrSource streams a property graph as a sequence of batches from a
// fallible backend. Next returns (nil, nil) when the stream is exhausted.
// A non-nil error classifies the failure: transient errors are retryable,
// corrupt-batch errors poison exactly one batch, anything else is
// permanent.
type ErrSource interface {
	Next() (*Batch, error)
}

// infallible adapts a legacy Source to ErrSource.
type infallible struct{ src Source }

func (a infallible) Next() (*Batch, error) { return a.src.Next(), nil }

// AsErrSource adapts a legacy infallible Source to the fallible interface.
// (The two interfaces cannot be implemented by one type — the Next
// signatures conflict — so the adapter is always a wrapper.)
func AsErrSource(src Source) ErrSource {
	return infallible{src: src}
}

// TransientError marks a retryable delivery failure: the batch at Seq was
// not delivered, but asking again may succeed.
type TransientError struct {
	// Seq is the 0-based index of the batch whose delivery failed.
	Seq int
	// Attempt is the 0-based delivery attempt that failed.
	Attempt int
	// Err is the underlying cause (may be nil for injected faults).
	Err error
}

// Error formats the failure.
func (e *TransientError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("pg: transient failure delivering batch %d (attempt %d): %v", e.Seq, e.Attempt, e.Err)
	}
	return fmt.Sprintf("pg: transient failure delivering batch %d (attempt %d)", e.Seq, e.Attempt)
}

// Unwrap exposes the cause.
func (e *TransientError) Unwrap() error { return e.Err }

// IsTransient reports whether err is (or wraps) a retryable delivery
// failure. A RetryExhaustedError is NOT transient even though it wraps the
// last transient cause: the budget is spent, so it escalates to permanent —
// otherwise an outer consumer would retry what the retry layer already
// gave up on.
func IsTransient(err error) bool {
	var ree *RetryExhaustedError
	if errors.As(err, &ree) {
		return false
	}
	var te *TransientError
	return errors.As(err, &te)
}

// CorruptBatchError marks a poisoned batch: the stream delivered garbage
// (truncated file, parse failure, checksum mismatch) for exactly one batch
// and has already moved past it. Retrying cannot help; the consumer should
// quarantine the batch and continue.
type CorruptBatchError struct {
	// Seq is the 0-based index of the poisoned batch.
	Seq int
	// Reason describes the corruption.
	Reason string
	// Partial holds whatever could still be decoded (nil when nothing),
	// for diagnostics; the pipeline does not ingest it.
	Partial *Batch
	// Err is the underlying cause when the corruption came from a real
	// decoder (e.g. a *ParseError); nil for injected faults.
	Err error
}

// Error formats the failure.
func (e *CorruptBatchError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("pg: corrupt batch %d (%s): %v", e.Seq, e.Reason, e.Err)
	}
	return fmt.Sprintf("pg: corrupt batch %d: %s", e.Seq, e.Reason)
}

// Unwrap exposes the cause.
func (e *CorruptBatchError) Unwrap() error { return e.Err }

// IsCorrupt reports whether err is (or wraps) a poisoned-batch failure.
func IsCorrupt(err error) bool {
	var ce *CorruptBatchError
	return errors.As(err, &ce)
}

// FaultProfile configures deterministic, seeded fault injection. Every
// rate is a probability in [0, 1]; decisions are pure functions of
// (Seed, batch seq, attempt), so two FaultSources with the same profile
// over the same stream inject byte-identical faults — the property the
// fault-injection test harness relies on.
type FaultProfile struct {
	// TransientRate is the per-attempt probability that a delivery fails
	// with a TransientError. Consecutive failures for one batch are capped
	// at MaxConsecutive, so a retrying consumer always converges.
	TransientRate float64
	// MaxConsecutive caps consecutive transient failures per batch
	// (0 means 8).
	MaxConsecutive int
	// CorruptRate is the per-batch probability that the batch is poisoned:
	// delivered as a CorruptBatchError with no payload.
	CorruptRate float64
	// TruncateRate is the per-batch probability that the batch arrives
	// truncated: a CorruptBatchError carrying the decodable prefix in
	// Partial.
	TruncateRate float64
	// FailAfter, when > 0, injects a permanent failure once that many
	// batches have been pulled from the wrapped source — the mid-stream
	// crash the checkpoint/resume path recovers from.
	FailAfter int
	// Latency, when > 0, delays every delivery attempt (a slow loader).
	Latency time.Duration
	// Seed drives all injection decisions.
	Seed int64
}

// ErrPermanentFault is the terminal error injected once FailAfter batches
// were pulled.
var ErrPermanentFault = errors.New("pg: injected permanent source failure")

// FaultSource wraps an ErrSource and injects deterministic, seeded
// failures according to a FaultProfile. It is the test double for every
// dirty-input scenario the fault-tolerant ingestion layer must survive.
type FaultSource struct {
	inner   ErrSource
	profile FaultProfile
	sleep   func(time.Duration)

	pending *Batch // pulled but not yet delivered (held across transient failures)
	seq     int    // index of the pending/next batch
	attempt int    // delivery attempts for the pending batch
	pulled  int    // batches pulled from inner (FailAfter budget)
	dead    bool   // permanent failure reached

	transients int // injected transient failures
	corrupted  int // injected poisoned batches (incl. truncations)
}

// NewFaultSource wraps src with fault injection.
func NewFaultSource(src ErrSource, p FaultProfile) *FaultSource {
	if p.MaxConsecutive <= 0 {
		p.MaxConsecutive = 8
	}
	return &FaultSource{inner: src, profile: p, sleep: time.Sleep}
}

// SetSleep overrides the latency clock (tests).
func (f *FaultSource) SetSleep(fn func(time.Duration)) { f.sleep = fn }

// Stats reports how many faults were injected so far.
func (f *FaultSource) Stats() (transients, corrupted int) {
	return f.transients, f.corrupted
}

// decide hashes (seed, seq, attempt, salt) to a uniform float in [0, 1).
func (f *FaultSource) decide(seq, attempt int, salt uint64) float64 {
	x := uint64(f.profile.Seed)
	x = splitmix64(x ^ uint64(seq)*0x9e3779b97f4a7c15)
	x = splitmix64(x ^ uint64(attempt)*0xbf58476d1ce4e5b9)
	x = splitmix64(x ^ salt)
	return float64(x>>11) / float64(1<<53)
}

const (
	saltTransient = 0x7472616e7369656e // "transien"
	saltCorrupt   = 0x636f727275707400 // "corrupt\0"
	saltTruncate  = 0x7472756e63617465 // "truncate"
	saltJitter    = 0x6a69747465720000 // "jitter\0\0"
)

// Next delivers the next batch, injecting faults per the profile.
func (f *FaultSource) Next() (*Batch, error) {
	if f.profile.Latency > 0 {
		f.sleep(f.profile.Latency)
	}
	if f.dead {
		return nil, ErrPermanentFault
	}

	// Pull the next batch if none is pending delivery.
	if f.pending == nil {
		if f.profile.FailAfter > 0 && f.pulled >= f.profile.FailAfter {
			f.dead = true
			return nil, ErrPermanentFault
		}
		b, err := f.inner.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		f.pulled++
		seq := f.pulled - 1

		// Poison decisions are made once per batch, at pull time.
		if f.profile.CorruptRate > 0 && f.decide(seq, 0, saltCorrupt) < f.profile.CorruptRate {
			f.corrupted++
			return nil, &CorruptBatchError{Seq: seq, Reason: "injected corruption"}
		}
		if f.profile.TruncateRate > 0 && f.decide(seq, 0, saltTruncate) < f.profile.TruncateRate {
			f.corrupted++
			return nil, &CorruptBatchError{Seq: seq, Reason: "injected truncation", Partial: truncateBatch(b, f.decide(seq, 1, saltTruncate))}
		}
		f.pending, f.seq, f.attempt = b, seq, 0
	}

	// Transient failure for this delivery attempt?
	if f.profile.TransientRate > 0 && f.attempt < f.profile.MaxConsecutive &&
		f.decide(f.seq, f.attempt, saltTransient) < f.profile.TransientRate {
		f.attempt++
		f.transients++
		return nil, &TransientError{Seq: f.seq, Attempt: f.attempt - 1}
	}

	b := f.pending
	f.pending = nil
	return b, nil
}

// truncateBatch keeps a frac prefix of the batch's records (at least one
// element short of complete, so a truncation is never a no-op).
func truncateBatch(b *Batch, frac float64) *Batch {
	n := int(float64(len(b.Nodes)) * frac)
	e := int(float64(len(b.Edges)) * frac)
	if n >= len(b.Nodes) && e >= len(b.Edges) {
		if e > 0 {
			e--
		} else if n > 0 {
			n--
		}
	}
	return &Batch{Nodes: b.Nodes[:n], Edges: b.Edges[:e]}
}

// RetryPolicy configures RetrySource: exponential backoff with jitter and
// a per-batch attempt budget.
type RetryPolicy struct {
	// MaxAttempts is the per-batch delivery budget, counting the first try
	// (0 means 5). When exhausted, the last transient error escalates to a
	// permanent RetryExhaustedError.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (0 means 10ms).
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep (0 means 5s).
	MaxDelay time.Duration
	// Jitter is the fraction of the delay randomized (0..1; scales the
	// delay by a uniform factor in [1-Jitter, 1+Jitter]). Deterministic
	// for a given Seed.
	Jitter float64
	// Seed drives the jitter.
	Seed int64
	// Sleep overrides the clock (tests); nil means time.Sleep.
	Sleep func(time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// RetryExhaustedError escalates a transient failure after the attempt
// budget is spent.
type RetryExhaustedError struct {
	// Attempts is how many deliveries were tried.
	Attempts int
	// Err is the last transient error.
	Err error
}

// Error formats the failure.
func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("pg: retry budget exhausted after %d attempts: %v", e.Attempts, e.Err)
}

// Unwrap exposes the last transient error.
func (e *RetryExhaustedError) Unwrap() error { return e.Err }

// RetrySource wraps an ErrSource and absorbs transient failures with
// exponential backoff + jitter, within a per-batch attempt budget.
// Corrupt-batch and permanent errors pass through untouched — retrying
// cannot fix them.
type RetrySource struct {
	inner  ErrSource
	policy RetryPolicy
	instr  obs.Instr

	attempt  int // attempts spent on the current batch
	batchIdx int // monotone counter for jitter decorrelation

	lastAttempts int   // delivery attempts the last Next outcome consumed
	lastErr      error // last transient error absorbed or escalated
}

// NewRetrySource wraps src with the given retry policy.
func NewRetrySource(src ErrSource, p RetryPolicy) *RetrySource {
	return &RetrySource{inner: src, policy: p.withDefaults()}
}

// Attempts reports how many delivery attempts the most recent Next outcome
// consumed: 1 for a first-try success, n for a success after n-1 absorbed
// transients, and the full budget when it escalated to RetryExhaustedError.
// 0 before the first delivery completes.
func (r *RetrySource) Attempts() int { return r.lastAttempts }

// LastErr returns the most recent transient error seen (absorbed or
// escalated), nil if none occurred yet. Useful for logging what the retry
// layer has been hiding.
func (r *RetrySource) LastErr() error { return r.lastErr }

// Instrument attaches a telemetry sink: every absorbed transient emits
// CtrRetries, and every completed delivery (success or exhaustion) emits its
// attempt count as CtrRetryAttempts. A nil sink disables emission.
func (r *RetrySource) Instrument(s obs.Sink) { r.instr = obs.NewInstr(s) }

// Next delivers the next batch, retrying transient failures.
func (r *RetrySource) Next() (*Batch, error) {
	for {
		b, err := r.inner.Next()
		if err == nil {
			r.lastAttempts = r.attempt + 1
			r.instr.Add(obs.CtrRetryAttempts, uint64(r.lastAttempts))
			r.attempt = 0
			r.batchIdx++
			return b, nil
		}
		if !IsTransient(err) {
			// Corrupt or permanent: not retryable, pass through. A corrupt
			// batch still resets the budget — the next batch starts fresh.
			if IsCorrupt(err) {
				r.lastAttempts = r.attempt + 1
				r.instr.Add(obs.CtrRetryAttempts, uint64(r.lastAttempts))
				r.attempt = 0
				r.batchIdx++
			}
			return nil, err
		}
		r.lastErr = err
		r.attempt++
		if r.attempt >= r.policy.MaxAttempts {
			attempts := r.attempt
			r.lastAttempts = attempts
			r.instr.Add(obs.CtrRetryAttempts, uint64(attempts))
			r.attempt = 0
			r.batchIdx++
			return nil, &RetryExhaustedError{Attempts: attempts, Err: err}
		}
		r.instr.Add(obs.CtrRetries, 1)
		r.policy.Sleep(r.backoff(r.attempt))
	}
}

// backoff computes the attempt's delay: BaseDelay doubling per attempt,
// capped at MaxDelay, scaled by the deterministic jitter factor.
func (r *RetrySource) backoff(attempt int) time.Duration {
	d := r.policy.BaseDelay << (attempt - 1)
	if d > r.policy.MaxDelay || d <= 0 { // <= 0 guards shift overflow
		d = r.policy.MaxDelay
	}
	if r.policy.Jitter > 0 {
		x := splitmix64(uint64(r.policy.Seed) ^ uint64(r.batchIdx)*0x9e3779b97f4a7c15 ^ uint64(attempt) ^ saltJitter)
		u := float64(x>>11)/float64(1<<53)*2 - 1 // uniform in [-1, 1)
		d = time.Duration(float64(d) * (1 + r.policy.Jitter*u))
		if d < 0 {
			d = 0
		}
	}
	return d
}

// splitmix64 scrambles a 64-bit state into well-distributed bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
