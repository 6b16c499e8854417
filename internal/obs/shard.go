package obs

// Per-shard telemetry: a sharded discovery run wraps each shard pipeline's
// sink in a ShardSink, which forwards events tagged with the shard index to
// sinks that understand shards (ShardObserver) and transparently falls back
// to the plain Sink methods for those that don't. The Registry aggregates
// shard-tagged spans and histograms both globally (run totals stay whole)
// and into per-shard buckets exposed in Snapshot.Shards, /metrics JSON and
// the Prometheus pghive_shard_* series; the TraceWriter renders each shard
// as its own process row, so per-shard stage occupancy is visible at a
// glance in Perfetto.

// ShardObserver is implemented by sinks that track events per shard. Spans
// and histogram observations carry the shard index; counters stay global
// (they are run-monotone totals).
type ShardObserver interface {
	// ShardSpan receives a completed stage span from the given shard.
	ShardSpan(shard int, s Span)
	// ShardObserve records one histogram observation from the given shard.
	ShardObserve(shard int, h Hist, value uint64)
}

// ShardGaugeSink is optionally implemented by gauge sinks that keep a level
// per shard: each shard sets its own latest value, and the run-wide gauge
// reads the sum over shards (a fleet's evidence bytes are the sum of its
// shards'). Sinks without it get the plain last-write-wins update.
type ShardGaugeSink interface {
	ShardGauge(shard int, g Gauge, value uint64)
}

// shardSink tags every span and histogram observation with a shard index.
type shardSink struct {
	inner Sink
	shard int
}

// ShardSink wraps a sink so its spans and histogram observations are
// attributed to one shard. A nil inner sink stays nil (disabled
// instrumentation keeps its zero-cost path); sinks that do not implement
// ShardObserver receive the plain untagged events.
func ShardSink(inner Sink, shard int) Sink {
	if inner == nil {
		return nil
	}
	return shardSink{inner: inner, shard: shard}
}

// Span implements Sink.
func (ss shardSink) Span(s Span) {
	if so, ok := ss.inner.(ShardObserver); ok {
		so.ShardSpan(ss.shard, s)
		return
	}
	ss.inner.Span(s)
}

// Add implements Sink (counters are global).
func (ss shardSink) Add(c Counter, delta uint64) { ss.inner.Add(c, delta) }

// Gauge implements GaugeSink: the shard's level goes to a ShardGaugeSink,
// which sums it with the other shards' into the run-wide gauge.
func (ss shardSink) Gauge(g Gauge, value uint64) {
	shardGauge(ss.inner, ss.shard, g, value)
}

// shardGauge hands one shard's gauge level to sk.
func shardGauge(sk Sink, shard int, g Gauge, value uint64) {
	switch v := sk.(type) {
	case ShardGaugeSink:
		v.ShardGauge(shard, g, value)
	case GaugeSink:
		v.Gauge(g, value)
	}
}

// Observe implements Sink.
func (ss shardSink) Observe(h Hist, value uint64) {
	if so, ok := ss.inner.(ShardObserver); ok {
		so.ShardObserve(ss.shard, h, value)
		return
	}
	ss.inner.Observe(h, value)
}

// ShardSpan implements ShardObserver for Multi: each member gets the tagged
// event if it understands shards, the plain one otherwise.
func (m multi) ShardSpan(shard int, s Span) {
	for _, sk := range m {
		if so, ok := sk.(ShardObserver); ok {
			so.ShardSpan(shard, s)
		} else {
			sk.Span(s)
		}
	}
}

// ShardObserve implements ShardObserver for Multi.
func (m multi) ShardObserve(shard int, h Hist, value uint64) {
	for _, sk := range m {
		if so, ok := sk.(ShardObserver); ok {
			so.ShardObserve(shard, h, value)
		} else {
			sk.Observe(h, value)
		}
	}
}

// ShardGauge implements ShardGaugeSink for Multi.
func (m multi) ShardGauge(shard int, g Gauge, value uint64) {
	for _, sk := range m {
		shardGauge(sk, shard, g, value)
	}
}
