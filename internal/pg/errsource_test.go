package pg

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"pghive/internal/obs"
)

// testBatches builds n tiny distinct batches.
func testBatches(n int) []*Batch {
	out := make([]*Batch, n)
	for i := range out {
		out[i] = &Batch{Nodes: []NodeRecord{{
			ID:     ID(i),
			Labels: []string{"T"},
			Props:  Properties{"k": Int(int64(i))},
		}}}
	}
	return out
}

// drainErrSource pulls src to exhaustion, returning delivered batches and
// every error seen along the way.
func drainErrSource(t *testing.T, src ErrSource, maxSteps int) (batches []*Batch, errs []error) {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		b, err := src.Next()
		if err != nil {
			errs = append(errs, err)
			if !IsTransient(err) && !IsCorrupt(err) {
				return
			}
			continue
		}
		if b == nil {
			return
		}
		batches = append(batches, b)
	}
	t.Fatalf("source did not terminate within %d steps", maxSteps)
	return
}

func TestAsErrSourcePassThrough(t *testing.T) {
	src := AsErrSource(NewSliceSource(testBatches(3)...))
	batches, errs := drainErrSource(t, src, 100)
	if len(batches) != 3 || len(errs) != 0 {
		t.Fatalf("got %d batches, %d errors; want 3, 0", len(batches), len(errs))
	}
}

func TestFaultSourceTransientEventuallyDelivers(t *testing.T) {
	src := NewFaultSource(AsErrSource(NewSliceSource(testBatches(10)...)),
		FaultProfile{TransientRate: 0.5, Seed: 7})
	batches, errs := drainErrSource(t, src, 1000)
	if len(batches) != 10 {
		t.Fatalf("delivered %d batches, want all 10 despite transient faults", len(batches))
	}
	if len(errs) == 0 {
		t.Fatal("rate 0.5 over 10 batches should inject at least one transient error")
	}
	for _, err := range errs {
		if !IsTransient(err) {
			t.Errorf("unexpected non-transient error: %v", err)
		}
	}
	// Batches arrive in order and intact.
	for i, b := range batches {
		if b.Nodes[0].ID != ID(i) {
			t.Errorf("batch %d carries node %d; deliveries out of order", i, b.Nodes[0].ID)
		}
	}
}

func TestFaultSourceDeterministic(t *testing.T) {
	run := func() []error {
		src := NewFaultSource(AsErrSource(NewSliceSource(testBatches(20)...)),
			FaultProfile{TransientRate: 0.3, CorruptRate: 0.2, Seed: 42})
		_, errs := drainErrSource(t, src, 1000)
		return errs
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("two identical runs injected %d vs %d faults", len(a), len(b))
	}
	for i := range a {
		if a[i].Error() != b[i].Error() {
			t.Errorf("fault %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestFaultSourceCorruptAdvances(t *testing.T) {
	src := NewFaultSource(AsErrSource(NewSliceSource(testBatches(10)...)),
		FaultProfile{CorruptRate: 0.4, Seed: 3})
	batches, errs := drainErrSource(t, src, 1000)
	corrupt := 0
	for _, err := range errs {
		var ce *CorruptBatchError
		if !errors.As(err, &ce) {
			t.Fatalf("unexpected error kind: %v", err)
		}
		corrupt++
	}
	if corrupt == 0 {
		t.Fatal("rate 0.4 over 10 batches should poison at least one")
	}
	if len(batches)+corrupt != 10 {
		t.Errorf("delivered %d + poisoned %d != 10: a poisoned batch must advance the stream", len(batches), corrupt)
	}
}

func TestFaultSourceTruncationCarriesPartial(t *testing.T) {
	big := &Batch{}
	for i := 0; i < 100; i++ {
		big.Nodes = append(big.Nodes, NodeRecord{ID: ID(i), Labels: []string{"T"}})
	}
	// TruncateRate 1: the only batch is always truncated.
	src := NewFaultSource(AsErrSource(NewSliceSource(big)), FaultProfile{TruncateRate: 1, Seed: 1})
	b, err := src.Next()
	if b != nil || err == nil {
		t.Fatalf("want truncation error, got batch=%v err=%v", b, err)
	}
	var ce *CorruptBatchError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not CorruptBatchError", err)
	}
	if ce.Partial == nil || ce.Partial.Len() >= big.Len() {
		t.Errorf("truncation must carry a strictly smaller partial batch (got %v)", ce.Partial)
	}
}

func TestFaultSourceFailAfter(t *testing.T) {
	src := NewFaultSource(AsErrSource(NewSliceSource(testBatches(10)...)),
		FaultProfile{FailAfter: 4, Seed: 1})
	delivered := 0
	var lastErr error
	for i := 0; i < 100; i++ {
		b, err := src.Next()
		if err != nil {
			lastErr = err
			break
		}
		if b == nil {
			t.Fatal("stream exhausted before injected permanent failure")
		}
		delivered++
	}
	if delivered != 4 {
		t.Errorf("delivered %d batches before permanent failure, want 4", delivered)
	}
	if !errors.Is(lastErr, ErrPermanentFault) {
		t.Errorf("want ErrPermanentFault, got %v", lastErr)
	}
	// The failure is sticky.
	if _, err := src.Next(); !errors.Is(err, ErrPermanentFault) {
		t.Errorf("permanent failure must be sticky, got %v", err)
	}
}

func TestFaultSourceLatency(t *testing.T) {
	var slept time.Duration
	src := NewFaultSource(AsErrSource(NewSliceSource(testBatches(3)...)),
		FaultProfile{Latency: 5 * time.Millisecond, Seed: 1})
	src.SetSleep(func(d time.Duration) { slept += d })
	drainErrSource(t, src, 100)
	if slept < 15*time.Millisecond {
		t.Errorf("slept %v, want >= 15ms (3 deliveries + exhaustion probe)", slept)
	}
}

func TestRetrySourceAbsorbsTransients(t *testing.T) {
	var slept []time.Duration
	fault := NewFaultSource(AsErrSource(NewSliceSource(testBatches(10)...)),
		FaultProfile{TransientRate: 0.4, Seed: 11})
	retry := NewRetrySource(fault, RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   time.Millisecond,
		Jitter:      0.5,
		Seed:        1,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	reg := obs.NewRegistry()
	retry.Instrument(reg)
	batches, errs := drainErrSource(t, retry, 1000)
	if len(errs) != 0 {
		t.Fatalf("retry should absorb all transient faults, surfaced %v", errs)
	}
	if len(batches) != 10 {
		t.Fatalf("delivered %d batches, want 10", len(batches))
	}
	retries := reg.Snapshot().Counter(obs.CtrRetries)
	if retries == 0 || uint64(len(slept)) != retries {
		t.Errorf("%d retries counted, %d sleeps recorded", retries, len(slept))
	}
	var total time.Duration
	for _, d := range slept {
		total += d
	}
	if total <= 0 {
		t.Error("cumulative backoff should be positive")
	}
}

func TestRetrySourceBackoffGrowsAndCaps(t *testing.T) {
	// A source that always fails transiently.
	always := errSourceFunc(func() (*Batch, error) { return nil, &TransientError{} })
	var slept []time.Duration
	retry := NewRetrySource(always, RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	_, err := retry.Next()
	var re *RetryExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("want RetryExhaustedError, got %v", err)
	}
	if re.Attempts != 6 {
		t.Errorf("attempts = %d, want 6", re.Attempts)
	}
	want := []time.Duration{1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %d times (%v), want %d", len(slept), slept, len(want))
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Errorf("backoff %d = %v, want %v (no jitter)", i, slept[i], want[i])
		}
	}
}

func TestRetryExhaustedIsPermanent(t *testing.T) {
	// An exhausted budget escalates to permanent even though the error
	// still wraps its transient cause: an outer consumer must not retry
	// what the retry layer already gave up on.
	err := &RetryExhaustedError{Attempts: 3, Err: &TransientError{Seq: 1, Attempt: 2}}
	if IsTransient(err) {
		t.Fatal("RetryExhaustedError must not report as transient")
	}
	if IsTransient(fmt.Errorf("drain: %w", err)) {
		t.Fatal("wrapped RetryExhaustedError must not report as transient")
	}
	var te *TransientError
	if !errors.As(err, &te) {
		t.Fatal("the transient cause should stay reachable for diagnostics")
	}
	if IsTransient(&TransientError{}) != true {
		t.Fatal("plain TransientError must stay transient")
	}
}

func TestRetrySourcePassesCorruptThrough(t *testing.T) {
	calls := 0
	src := errSourceFunc(func() (*Batch, error) {
		calls++
		if calls == 1 {
			return nil, &CorruptBatchError{Seq: 0, Reason: "boom"}
		}
		return nil, nil
	})
	retry := NewRetrySource(src, RetryPolicy{Sleep: func(time.Duration) {}})
	_, err := retry.Next()
	if !IsCorrupt(err) {
		t.Fatalf("corrupt error must pass through untouched, got %v", err)
	}
	if b, err := retry.Next(); b != nil || err != nil {
		t.Fatalf("stream should be exhausted, got %v, %v", b, err)
	}
	if calls != 2 {
		t.Errorf("corrupt batch retried: %d inner calls, want 2", calls)
	}
}

// TestRetrySourceAttemptsAccessor: a delivery that needs 3 attempts (two
// absorbed transients, then success) reports Attempts() == 3, keeps the
// last absorbed error reachable, and emits the matching telemetry counters.
func TestRetrySourceAttemptsAccessor(t *testing.T) {
	calls := 0
	batches := testBatches(2)
	src := errSourceFunc(func() (*Batch, error) {
		calls++
		switch calls {
		case 1, 2:
			return nil, &TransientError{Seq: 0, Attempt: calls - 1}
		case 3:
			return batches[0], nil
		case 4:
			return batches[1], nil
		}
		return nil, nil
	})
	reg := obs.NewRegistry()
	retry := NewRetrySource(src, RetryPolicy{Sleep: func(time.Duration) {}})
	retry.Instrument(reg)

	if retry.Attempts() != 0 || retry.LastErr() != nil {
		t.Fatal("fresh RetrySource must report zero attempts and no error")
	}
	if b, err := retry.Next(); err != nil || b != batches[0] {
		t.Fatalf("Next = %v, %v; want first batch", b, err)
	}
	if got := retry.Attempts(); got != 3 {
		t.Errorf("Attempts() = %d, want 3 (two transients + success)", got)
	}
	var te *TransientError
	if !errors.As(retry.LastErr(), &te) || te.Attempt != 1 {
		t.Errorf("LastErr() = %v, want the last absorbed transient (attempt 1)", retry.LastErr())
	}

	if b, err := retry.Next(); err != nil || b != batches[1] {
		t.Fatalf("Next = %v, %v; want second batch", b, err)
	}
	if got := retry.Attempts(); got != 1 {
		t.Errorf("Attempts() after clean delivery = %d, want 1", got)
	}

	snap := reg.Snapshot()
	if got := snap.Counter(obs.CtrRetries); got != 2 {
		t.Errorf("retries counter = %d, want 2", got)
	}
	if got := snap.Counter(obs.CtrRetryAttempts); got != 4 {
		t.Errorf("retry_attempts counter = %d, want 4 (3 + 1)", got)
	}
}

// TestRetrySourceAttemptsOnExhaustion: when the budget is spent, Attempts()
// reports the full budget — the same number RetryExhaustedError carries.
func TestRetrySourceAttemptsOnExhaustion(t *testing.T) {
	always := errSourceFunc(func() (*Batch, error) { return nil, &TransientError{} })
	retry := NewRetrySource(always, RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}})
	_, err := retry.Next()
	var re *RetryExhaustedError
	if !errors.As(err, &re) {
		t.Fatalf("want RetryExhaustedError, got %v", err)
	}
	if retry.Attempts() != re.Attempts || retry.Attempts() != 3 {
		t.Errorf("Attempts() = %d, error carries %d, want both 3", retry.Attempts(), re.Attempts)
	}
	if retry.LastErr() == nil {
		t.Error("LastErr() must hold the escalated transient cause")
	}
}

// errSourceFunc adapts a function to ErrSource.
type errSourceFunc func() (*Batch, error)

func (f errSourceFunc) Next() (*Batch, error) { return f() }
