package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two occupancy buckets: upper bounds
// 1, 2, 4, …, 2^14, plus a final overflow bucket (+Inf).
const histBuckets = 16

// Registry is a Sink aggregating events into snapshot-able metrics.
// Counters are lock-free atomics; span and histogram aggregates take one
// short mutex each, so concurrent emitters and scrapers never tear a read
// (TestMetricsScrapeDuringDiscover exercises this under -race).
type Registry struct {
	start    time.Time
	counters [numCounters]atomic.Uint64
	gauges   [numGauges]atomic.Uint64
	stages   [numStages]stageAgg
	hists    [numHists]histAgg

	// shards holds per-shard aggregates, created lazily when shard-tagged
	// events arrive (ShardSpan/ShardObserve); unsharded runs never touch it.
	shardMu sync.Mutex
	shards  map[int]*shardAgg
}

// shardAgg aggregates one shard's spans and histograms, and holds its gauge
// levels.
type shardAgg struct {
	stages [numStages]stageAgg
	hists  [numHists]histAgg
	gauges [numGauges]atomic.Uint64
}

type stageAgg struct {
	mu       sync.Mutex
	count    uint64
	total    time.Duration
	min, max time.Duration
	elements uint64
}

type histAgg struct {
	mu      sync.Mutex
	buckets [histBuckets]uint64
	count   uint64
	sum     uint64
	max     uint64
}

// NewRegistry returns an empty registry; its uptime clock starts now.
func NewRegistry() *Registry {
	return &Registry{start: time.Now()}
}

// Span implements Sink.
func (r *Registry) Span(s Span) {
	if s.Stage >= numStages {
		return
	}
	r.stages[s.Stage].observe(s)
}

// observe folds one span into the aggregate.
func (a *stageAgg) observe(s Span) {
	a.mu.Lock()
	if a.count == 0 || s.Duration < a.min {
		a.min = s.Duration
	}
	if s.Duration > a.max {
		a.max = s.Duration
	}
	a.count++
	a.total += s.Duration
	if s.Elements > 0 {
		a.elements += uint64(s.Elements)
	}
	a.mu.Unlock()
}

// shard returns (lazily creating) the aggregate bucket for one shard.
func (r *Registry) shard(shard int) *shardAgg {
	r.shardMu.Lock()
	defer r.shardMu.Unlock()
	if r.shards == nil {
		r.shards = map[int]*shardAgg{}
	}
	a, ok := r.shards[shard]
	if !ok {
		a = &shardAgg{}
		r.shards[shard] = a
	}
	return a
}

// ShardSpan implements ShardObserver: the span counts toward the run totals
// exactly as an untagged span would, plus the shard's own bucket.
func (r *Registry) ShardSpan(shard int, s Span) {
	if s.Stage >= numStages {
		return
	}
	r.stages[s.Stage].observe(s)
	r.shard(shard).stages[s.Stage].observe(s)
}

// ShardObserve implements ShardObserver.
func (r *Registry) ShardObserve(shard int, h Hist, value uint64) {
	if h >= numHists {
		return
	}
	r.hists[h].observe(value)
	r.shard(shard).hists[h].observe(value)
}

// ShardGauge implements ShardGaugeSink: the run-wide gauge becomes the sum
// of every shard's latest level.
func (r *Registry) ShardGauge(shard int, g Gauge, value uint64) {
	if g >= numGauges {
		return
	}
	r.shard(shard).gauges[g].Store(value)
	r.shardMu.Lock()
	var sum uint64
	for _, a := range r.shards {
		sum += a.gauges[g].Load()
	}
	r.gauges[g].Store(sum)
	r.shardMu.Unlock()
}

// Add implements Sink.
func (r *Registry) Add(c Counter, delta uint64) {
	if c < numCounters {
		r.counters[c].Add(delta)
	}
}

// Gauge implements GaugeSink (last write wins).
func (r *Registry) Gauge(g Gauge, value uint64) {
	if g < numGauges {
		r.gauges[g].Store(value)
	}
}

// Observe implements Sink.
func (r *Registry) Observe(h Hist, value uint64) {
	if h >= numHists {
		return
	}
	r.hists[h].observe(value)
}

// observe folds one observation into the histogram aggregate.
func (a *histAgg) observe(value uint64) {
	// Bucket index = ⌈log2(value)⌉ clamped: value 1 → bucket 0 (le 1),
	// 2 → 1 (le 2), 3..4 → 2 (le 4), …, > 2^14 → overflow.
	idx := 0
	if value > 1 {
		idx = bits.Len64(value - 1)
	}
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	a.mu.Lock()
	a.buckets[idx]++
	a.count++
	a.sum += value
	if value > a.max {
		a.max = value
	}
	a.mu.Unlock()
}

// StageSnapshot aggregates one stage's spans.
type StageSnapshot struct {
	// Count is how many spans completed.
	Count uint64 `json:"count"`
	// TotalNs, MinNs and MaxNs aggregate span durations in nanoseconds.
	TotalNs int64 `json:"total_ns"`
	MinNs   int64 `json:"min_ns"`
	MaxNs   int64 `json:"max_ns"`
	// Elements is the total element count the stage touched.
	Elements uint64 `json:"elements"`
}

// Mean returns the average span duration.
func (s StageSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(uint64(s.TotalNs) / s.Count)
}

// BucketCount is one histogram bucket: observations ≤ Le (Le 0 marks the
// overflow bucket, rendered as +Inf).
type BucketCount struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistSnapshot aggregates one histogram.
type HistSnapshot struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Max   uint64 `json:"max"`
	// Buckets are the non-empty power-of-two buckets in ascending order.
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Mean returns the average observed value.
func (h HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snapshot is a consistent point-in-time view of the registry, keyed by
// metric name (the enum String() values). It marshals to stable JSON
// (encoding/json sorts map keys).
type Snapshot struct {
	// UptimeNs is the time since the registry was created.
	UptimeNs int64 `json:"uptime_ns"`
	// Counters holds every non-zero monotone counter.
	Counters map[string]uint64 `json:"counters"`
	// Gauges holds every non-zero point-in-time level (latest value).
	Gauges map[string]uint64 `json:"gauges,omitempty"`
	// Stages holds per-stage span aggregates for stages that ran.
	Stages map[string]StageSnapshot `json:"stages"`
	// Hists holds the occupancy histograms that received observations.
	Hists map[string]HistSnapshot `json:"hists"`
	// Shards holds per-shard stage/histogram aggregates keyed by the shard
	// index ("0", "1", …); present only for sharded runs (events tagged via
	// ShardSink). Shard events also count toward Stages and Hists, so the
	// run totals stay whole.
	Shards map[string]ShardSnapshot `json:"shards,omitempty"`
}

// ShardSnapshot is one shard's aggregate view.
type ShardSnapshot struct {
	Stages map[string]StageSnapshot `json:"stages"`
	Hists  map[string]HistSnapshot  `json:"hists,omitempty"`
}

// Counter returns a counter's value by enum (0 when absent).
func (s *Snapshot) Counter(c Counter) uint64 { return s.Counters[c.String()] }

// Gauge returns a gauge's latest value by enum (0 when absent).
func (s *Snapshot) Gauge(g Gauge) uint64 { return s.Gauges[g.String()] }

// Stage returns a stage's aggregate by enum.
func (s *Snapshot) Stage(st Stage) StageSnapshot { return s.Stages[st.String()] }

// Hist returns a histogram by enum.
func (s *Snapshot) Hist(h Hist) HistSnapshot { return s.Hists[h.String()] }

// Snapshot captures the registry's current state. Each aggregate is read
// under its own lock, so no individual metric is ever torn; the snapshot as
// a whole is not a cross-metric atomic cut (scrapes race batch completion
// by design).
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		UptimeNs: time.Since(r.start).Nanoseconds(),
		Counters: make(map[string]uint64),
		Stages:   make(map[string]StageSnapshot),
		Hists:    make(map[string]HistSnapshot),
	}
	for c := Counter(0); c < numCounters; c++ {
		if v := r.counters[c].Load(); v > 0 {
			s.Counters[c.String()] = v
		}
	}
	for g := Gauge(0); g < numGauges; g++ {
		if v := r.gauges[g].Load(); v > 0 {
			if s.Gauges == nil {
				s.Gauges = make(map[string]uint64)
			}
			s.Gauges[g.String()] = v
		}
	}
	// Process-level gauges are computed at scrape time, not stored, so the
	// emit path never touches them and stays allocation-free when disabled.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if s.Gauges == nil {
		s.Gauges = make(map[string]uint64)
	}
	s.Gauges[GaugeProcessHeapBytes.String()] = ms.HeapAlloc
	s.Gauges[GaugeProcessGoroutines.String()] = uint64(runtime.NumGoroutine())
	s.Gauges[GaugeProcessUptimeSeconds.String()] = uint64(time.Since(r.start) / time.Second)
	snapStages(&r.stages, s.Stages)
	snapHists(&r.hists, s.Hists)
	r.shardMu.Lock()
	if len(r.shards) > 0 {
		s.Shards = make(map[string]ShardSnapshot, len(r.shards))
		for shard, a := range r.shards {
			ss := ShardSnapshot{Stages: map[string]StageSnapshot{}, Hists: map[string]HistSnapshot{}}
			snapStages(&a.stages, ss.Stages)
			snapHists(&a.hists, ss.Hists)
			s.Shards[strconv.Itoa(shard)] = ss
		}
	}
	r.shardMu.Unlock()
	return s
}

// snapStages reads every active stage aggregate (under its lock) into out.
func snapStages(stages *[numStages]stageAgg, out map[string]StageSnapshot) {
	for st := Stage(0); st < numStages; st++ {
		a := &stages[st]
		a.mu.Lock()
		if a.count > 0 {
			out[st.String()] = StageSnapshot{
				Count:    a.count,
				TotalNs:  a.total.Nanoseconds(),
				MinNs:    a.min.Nanoseconds(),
				MaxNs:    a.max.Nanoseconds(),
				Elements: a.elements,
			}
		}
		a.mu.Unlock()
	}
}

// snapHists reads every active histogram aggregate (under its lock) into
// out.
func snapHists(hists *[numHists]histAgg, out map[string]HistSnapshot) {
	for h := Hist(0); h < numHists; h++ {
		a := &hists[h]
		a.mu.Lock()
		if a.count > 0 {
			hs := HistSnapshot{Count: a.count, Sum: a.sum, Max: a.max}
			for i, n := range a.buckets {
				if n == 0 {
					continue
				}
				le := uint64(1) << i
				if i == histBuckets-1 {
					le = 0 // overflow bucket: +Inf
				}
				hs.Buckets = append(hs.Buckets, BucketCount{Le: le, Count: n})
			}
			out[h.String()] = hs
		}
		a.mu.Unlock()
	}
}

// WriteJSON renders a snapshot as indented, stable-order JSON — the
// expvar-style /metrics payload.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WritePrometheus renders a snapshot in the Prometheus text exposition
// format (metric names prefixed pghive_, durations in seconds).
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	p("# TYPE pghive_uptime_seconds gauge\npghive_uptime_seconds %g\n",
		float64(s.UptimeNs)/1e9)

	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p("# TYPE pghive_%s_total counter\npghive_%s_total %d\n", name, name, s.Counters[name])
	}

	gnames := make([]string, 0, len(s.Gauges))
	for name := range s.Gauges {
		gnames = append(gnames, name)
	}
	sort.Strings(gnames)
	for _, name := range gnames {
		p("# TYPE pghive_%s gauge\npghive_%s %d\n", name, name, s.Gauges[name])
	}

	if len(s.Stages) > 0 {
		p("# TYPE pghive_stage_seconds_total counter\n")
		eachStage(s, func(name string, st StageSnapshot) {
			p("pghive_stage_seconds_total{stage=%q} %g\n", name, float64(st.TotalNs)/1e9)
		})
		p("# TYPE pghive_stage_spans_total counter\n")
		eachStage(s, func(name string, st StageSnapshot) {
			p("pghive_stage_spans_total{stage=%q} %d\n", name, st.Count)
		})
		p("# TYPE pghive_stage_elements_total counter\n")
		eachStage(s, func(name string, st StageSnapshot) {
			p("pghive_stage_elements_total{stage=%q} %d\n", name, st.Elements)
		})
	}

	if len(s.Shards) > 0 {
		p("# TYPE pghive_shard_stage_seconds_total counter\n")
		eachShard(s, func(shard string, ss ShardSnapshot) {
			eachStageOf(ss.Stages, func(name string, st StageSnapshot) {
				p("pghive_shard_stage_seconds_total{shard=%q,stage=%q} %g\n", shard, name, float64(st.TotalNs)/1e9)
			})
		})
		p("# TYPE pghive_shard_stage_spans_total counter\n")
		eachShard(s, func(shard string, ss ShardSnapshot) {
			eachStageOf(ss.Stages, func(name string, st StageSnapshot) {
				p("pghive_shard_stage_spans_total{shard=%q,stage=%q} %d\n", shard, name, st.Count)
			})
		})
		p("# TYPE pghive_shard_stage_elements_total counter\n")
		eachShard(s, func(shard string, ss ShardSnapshot) {
			eachStageOf(ss.Stages, func(name string, st StageSnapshot) {
				p("pghive_shard_stage_elements_total{shard=%q,stage=%q} %d\n", shard, name, st.Elements)
			})
		})
	}

	hnames := make([]string, 0, len(s.Hists))
	for name := range s.Hists {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Hists[name]
		p("# TYPE pghive_%s histogram\n", name)
		cum := uint64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			if b.Le == 0 {
				continue // folded into +Inf below
			}
			p("pghive_%s_bucket{le=\"%d\"} %d\n", name, b.Le, cum)
		}
		p("pghive_%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
		p("pghive_%s_sum %d\npghive_%s_count %d\n", name, h.Sum, name, h.Count)
	}
	return err
}

func eachStage(s *Snapshot, f func(name string, st StageSnapshot)) {
	eachStageOf(s.Stages, f)
}

func eachStageOf(stages map[string]StageSnapshot, f func(name string, st StageSnapshot)) {
	names := make([]string, 0, len(stages))
	for name := range stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f(name, stages[name])
	}
}

// eachShard visits shards in ascending numeric index order.
func eachShard(s *Snapshot, f func(shard string, ss ShardSnapshot)) {
	idx := make([]int, 0, len(s.Shards))
	for k := range s.Shards {
		if i, err := strconv.Atoi(k); err == nil {
			idx = append(idx, i)
		}
	}
	sort.Ints(idx)
	for _, i := range idx {
		k := strconv.Itoa(i)
		f(k, s.Shards[k])
	}
}

// WriteText renders a snapshot as a short human-readable summary — the
// -telemetry end-of-run report.
func (s *Snapshot) WriteText(w io.Writer) {
	fmt.Fprintf(w, "telemetry (uptime %v):\n", time.Duration(s.UptimeNs).Round(time.Millisecond))
	eachStage(s, func(name string, st StageSnapshot) {
		fmt.Fprintf(w, "  stage %-12s %4d spans  total %-12v mean %-10v max %v\n",
			name, st.Count, time.Duration(st.TotalNs).Round(time.Microsecond),
			st.Mean().Round(time.Microsecond), time.Duration(st.MaxNs).Round(time.Microsecond))
	})
	eachShard(s, func(shard string, ss ShardSnapshot) {
		eachStageOf(ss.Stages, func(name string, st StageSnapshot) {
			fmt.Fprintf(w, "  shard %s %-12s %4d spans  total %-12v mean %v\n",
				shard, name, st.Count, time.Duration(st.TotalNs).Round(time.Microsecond),
				st.Mean().Round(time.Microsecond))
		})
	})
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-26s %d\n", name, s.Counters[name])
	}
	gnames := make([]string, 0, len(s.Gauges))
	for name := range s.Gauges {
		gnames = append(gnames, name)
	}
	sort.Strings(gnames)
	for _, name := range gnames {
		fmt.Fprintf(w, "  %-26s %d (gauge)\n", name, s.Gauges[name])
	}
	for _, h := range []Hist{HistNodeOccupancy, HistEdgeOccupancy, HistDriftBatchViolations, HistEpochDiffChanges} {
		if hs, ok := s.Hists[h.String()]; ok {
			fmt.Fprintf(w, "  %-26s %d buckets, mean %.1f, max %d\n",
				h.String(), hs.Count, hs.Mean(), hs.Max)
		}
	}
}
