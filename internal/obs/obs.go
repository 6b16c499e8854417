// Package obs is the pipeline's zero-dependency telemetry layer: typed
// events (stage spans, monotone counters, occupancy histograms) flow from
// the discovery pipeline into a Sink. The layer is strictly execution-only —
// no event ever feeds back into discovery, so instrumented and
// uninstrumented runs produce byte-identical schemas — and the disabled
// path is free: call sites guard through Instr, whose methods reduce to a
// nil check and are allocation-free (pinned by TestInstrDisabledAllocFree
// and BenchmarkInstrDisabled, asserted in CI).
//
// Three sinks ship with the package:
//
//   - Registry aggregates events into snapshot-able metrics, exposed as
//     expvar-style JSON and Prometheus text over HTTP (Handler/Serve) and
//     programmatically via Snapshot.
//   - TraceWriter streams spans as Chrome-trace-format JSON lines loadable
//     in chrome://tracing or Perfetto, one track per pipeline-depth slot so
//     batch overlap is visible.
//   - Multi fans events out to several sinks.
package obs

import "time"

// Stage identifies one pipeline stage of Algorithm 1's batch loop (plus the
// run-level post-processing and the per-batch checkpoint write).
type Stage uint8

// Pipeline stages, in batch-flow order.
const (
	// StageLoad is the time a batch's consumer was blocked fetching it from
	// the source. Under the prefetching engine this measures the stall, not
	// the upstream cost: a fully hidden load shows ~0.
	StageLoad Stage = iota
	// StagePreprocess is label alignment + vectorization (serial, in batch
	// order).
	StagePreprocess
	// StageCluster is LSH clustering of both element kinds.
	StageCluster
	// StageExtract is candidate building + merging into the schema (serial,
	// in batch order).
	StageExtract
	// StagePostprocess is Finalize: constraints, data types, cardinalities.
	StagePostprocess
	// StageCheckpoint is encoding + persisting one per-batch checkpoint.
	StageCheckpoint
	// StageMerge is the cross-shard schema merge of a sharded run: remapping
	// each partial schema's interned IDs into the global table and re-running
	// Algorithm 2 across shard boundaries.
	StageMerge
	// StageValidate is the streaming conformance check of one batch against
	// the current schema epoch, before the batch is merged.
	StageValidate
	// StageEpoch is an epoch boundary: snapshotting the schema, diffing it
	// against the previous epoch, and emitting the drift report.
	StageEpoch
	numStages
)

var stageNames = [numStages]string{
	"load", "preprocess", "cluster", "extract", "postprocess", "checkpoint", "merge",
	"validate", "epoch",
}

// String returns the stage's snake-case metric name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// NumStages is the number of defined stages.
const NumStages = int(numStages)

// Span is one timed execution of a stage. Spans are emitted when the stage
// completes, value-typed so the disabled path never allocates.
type Span struct {
	// Stage is the pipeline stage this span timed.
	Stage Stage
	// Batch is the batch sequence number, or -1 for run-scoped spans
	// (post-processing).
	Batch int
	// Slot is the pipeline-depth slot (Batch mod PipelineDepth) — the trace
	// track, so overlapping batches render on separate rows.
	Slot int
	// Start is when the stage began.
	Start time.Time
	// Duration is the stage's wall-clock time.
	Duration time.Duration
	// Elements is how many elements (nodes + edges; bytes for checkpoint
	// spans) the stage touched.
	Elements int
}

// Counter enumerates the pipeline's monotone counters.
type Counter uint8

// Counters.
const (
	// CtrBatches counts batches extracted into the schema.
	CtrBatches Counter = iota
	// CtrNodes and CtrEdges count processed element records.
	CtrNodes
	CtrEdges
	// CtrNodeClusters and CtrEdgeClusters count LSH clusters formed.
	CtrNodeClusters
	CtrEdgeClusters
	// CtrTypesCreated counts types added to the schema; CtrTypesMerged
	// counts cluster candidates merged into existing types.
	CtrTypesCreated
	CtrTypesMerged
	// CtrRetries counts transient source faults absorbed (by a RetrySource
	// or by the fault-tolerant drain's in-place re-pull).
	CtrRetries
	// CtrRetryAttempts counts delivery attempts consumed by delivered
	// batches (a RetrySource emits its per-batch Attempts here).
	CtrRetryAttempts
	// CtrQuarantined counts poisoned batches skipped.
	CtrQuarantined
	// CtrCheckpoints and CtrCheckpointBytes count persisted checkpoints and
	// their total encoded size.
	CtrCheckpoints
	CtrCheckpointBytes
	// CtrEmbedTokensReused / CtrEmbedTokensTrained count label-set tokens
	// served from the cross-batch embedding cache vs newly trained.
	CtrEmbedTokensReused
	CtrEmbedTokensTrained
	// CtrPrefixDotsComputed counts distinct prefix projection-dot sets the
	// factored ELSH kernel computed; CtrPrefixDotHits counts elements hashed
	// by reusing one (beyond the first element per distinct prefix).
	CtrPrefixDotsComputed
	CtrPrefixDotHits
	// CtrRecordSigsComputed counts record signatures computed, one per
	// record (element shape) of a batch kind, by either kernel (ELSH or
	// MinHash); CtrRecordSigHits counts elements served by their record's
	// signature beyond the first.
	CtrRecordSigsComputed
	CtrRecordSigHits
	// CtrSoakWindows counts invariant windows the soak harness checked;
	// CtrSoakKills counts injected kill/resume cycles; CtrSoakViolations
	// counts invariant violations observed (0 on a healthy run).
	CtrSoakWindows
	CtrSoakKills
	CtrSoakViolations
	// Drift violation counters, one per validate.DriftClass: elements whose
	// labels name a type the epoch has never seen (CtrDriftNewType), a new
	// combination of known labels (CtrDriftNewLabelSet), a property value
	// wider than the declared type under the type-priority lattice
	// (CtrDriftWidenedType), a previously-mandatory property now absent
	// (CtrDriftMissingMandatory), an edge breaking a *:1 cardinality
	// (CtrDriftCardinalityBreak), and a property value strictly narrower
	// than its declared type (CtrDriftTypeDowngrade).
	CtrDriftNewType
	CtrDriftNewLabelSet
	CtrDriftWidenedType
	CtrDriftMissingMandatory
	CtrDriftCardinalityBreak
	CtrDriftTypeDowngrade
	// CtrDriftBatches counts validated batches with at least one violation;
	// CtrDriftQuarantined counts batches the quarantine policy withheld from
	// the merge.
	CtrDriftBatches
	CtrDriftQuarantined
	// CtrEpochs counts epoch snapshots taken; CtrEpochChanges counts total
	// schema.Diff changes observed across epoch boundaries.
	CtrEpochs
	CtrEpochChanges
	// Resident schema service read path (internal/serve): CtrServeRequests
	// counts /schema responses served, CtrServeCacheHits the ones answered
	// from an epoch's pre-rendered byte cache, and CtrServeRenders the
	// render-once misses (at most tiers × epochs on the unfiltered path).
	CtrServeRequests
	CtrServeCacheHits
	CtrServeRenders
	numCounters
)

var counterNames = [numCounters]string{
	"batches", "nodes", "edges", "node_clusters", "edge_clusters",
	"types_created", "types_merged", "retries", "retry_attempts",
	"quarantined", "checkpoints", "checkpoint_bytes",
	"embed_tokens_reused", "embed_tokens_trained",
	"prefix_dots_computed", "prefix_dot_hits",
	"record_sigs_computed", "record_sig_hits",
	"soak_windows", "soak_kills", "soak_violations",
	"drift_new_type", "drift_new_label_set", "drift_widened_type",
	"drift_missing_mandatory", "drift_cardinality_break", "drift_type_downgrade",
	"drift_batches", "drift_quarantined",
	"epochs", "epoch_changes",
	"serve_requests", "serve_cache_hits", "serve_renders",
}

// String returns the counter's snake-case metric name.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// NumCounters is the number of defined counters.
const NumCounters = int(numCounters)

// Hist enumerates the occupancy histograms.
type Hist uint8

// Histograms.
const (
	// HistNodeOccupancy and HistEdgeOccupancy observe the member count of
	// every LSH bucket (cluster) formed, per kind.
	HistNodeOccupancy Hist = iota
	HistEdgeOccupancy
	// HistDriftBatchViolations observes the violation count of every
	// validated batch that drifted (the per-window drift rate), and
	// HistEpochDiffChanges the schema.Diff change count at every epoch
	// boundary.
	HistDriftBatchViolations
	HistEpochDiffChanges
	// HistServeRenderMicros observes the one-time render cost (µs) of each
	// (epoch, tier) response the schema service materialized — the cache-miss
	// path only, so the distribution is invalidation cost, not read latency.
	HistServeRenderMicros
	numHists
)

var histNames = [numHists]string{
	"lsh_node_bucket_occupancy", "lsh_edge_bucket_occupancy",
	"drift_batch_violations", "epoch_diff_changes",
	"serve_render_micros",
}

// String returns the histogram's snake-case metric name.
func (h Hist) String() string {
	if int(h) < len(histNames) {
		return histNames[h]
	}
	return "unknown"
}

// NumHists is the number of defined histograms.
const NumHists = int(numHists)

// Gauge enumerates point-in-time levels — last-write-wins values, unlike the
// monotone Counters. The memory-bounded evidence layer publishes its budget
// and retained-byte estimates here so an operator can watch a -mem-budget
// run hold its ceiling.
type Gauge uint8

// Gauges.
const (
	// GaugeMemBudgetBytes is the configured pipeline memory budget
	// (Config.MemBudgetBytes; absent when unbounded).
	GaugeMemBudgetBytes Gauge = iota
	// GaugeEvidenceBytes is the schema evidence layer's estimated retained
	// bytes (schema.EvidenceBytes), refreshed after every extraction.
	GaugeEvidenceBytes
	// Process-level gauges, computed inside Registry.Snapshot (never stored,
	// so the instrument path stays allocation-free): live heap bytes,
	// goroutine count, and whole seconds since the registry was created.
	GaugeProcessHeapBytes
	GaugeProcessGoroutines
	GaugeProcessUptimeSeconds
	// GaugeServeEpoch is the schema service's currently published epoch id;
	// GaugeServeInflightReads the number of /schema requests mid-flight
	// (both updated with lock-free atomics — the read hot path never blocks).
	GaugeServeEpoch
	GaugeServeInflightReads
	numGauges
)

var gaugeNames = [numGauges]string{
	"mem_budget_bytes", "evidence_bytes",
	"process_heap_bytes", "process_goroutines", "process_uptime_seconds",
	"serve_epoch", "serve_inflight_reads",
}

// String returns the gauge's snake-case metric name.
func (g Gauge) String() string {
	if int(g) < len(gaugeNames) {
		return gaugeNames[g]
	}
	return "unknown"
}

// NumGauges is the number of defined gauges.
const NumGauges = int(numGauges)

// Sink receives telemetry events. Implementations must be safe for
// concurrent use: the overlapped engine emits cluster spans and kernel
// counters from several goroutines at once. A Sink must never block for
// long — it sits on the pipeline's critical path when enabled.
type Sink interface {
	// Span receives one completed stage span.
	Span(s Span)
	// Add increments a monotone counter.
	Add(c Counter, delta uint64)
	// Observe records one histogram observation.
	Observe(h Hist, value uint64)
}

// GaugeSink is optionally implemented by sinks that track gauges. Gauges
// were added after Sink's method set froze, so they ride on a side
// interface: emitters type-assert through Instr.Gauge and sinks that don't
// care never see them.
type GaugeSink interface {
	// Gauge sets a gauge to its latest value (last write wins).
	Gauge(g Gauge, value uint64)
}

// Instr guards instrumentation call sites. The zero value is disabled:
// every method reduces to a nil check, costs sub-nanosecond time and zero
// allocations (BenchmarkInstrDisabled), so instrumented code paths are free
// when no sink is configured.
type Instr struct{ sink Sink }

// NewInstr wraps a sink (nil disables instrumentation).
func NewInstr(s Sink) Instr { return Instr{sink: s} }

// Enabled reports whether events are being recorded. Call sites use it to
// skip work that only exists to build an event (e.g. extra time stamps).
func (in Instr) Enabled() bool { return in.sink != nil }

// Span forwards a completed span to the sink, if any.
func (in Instr) Span(s Span) {
	if in.sink != nil {
		in.sink.Span(s)
	}
}

// Add forwards a counter increment to the sink, if any.
func (in Instr) Add(c Counter, delta uint64) {
	if in.sink != nil {
		in.sink.Add(c, delta)
	}
}

// Observe forwards a histogram observation to the sink, if any.
func (in Instr) Observe(h Hist, value uint64) {
	if in.sink != nil {
		in.sink.Observe(h, value)
	}
}

// Gauge forwards a gauge update to the sink, if it tracks gauges.
func (in Instr) Gauge(g Gauge, value uint64) {
	if gs, ok := in.sink.(GaugeSink); ok {
		gs.Gauge(g, value)
	}
}

// multi fans events out to several sinks.
type multi []Sink

func (m multi) Span(s Span) {
	for _, sk := range m {
		sk.Span(s)
	}
}

func (m multi) Add(c Counter, delta uint64) {
	for _, sk := range m {
		sk.Add(c, delta)
	}
}

func (m multi) Observe(h Hist, value uint64) {
	for _, sk := range m {
		sk.Observe(h, value)
	}
}

// Gauge implements GaugeSink for Multi: members that track gauges get the
// update, the rest never see it.
func (m multi) Gauge(g Gauge, value uint64) {
	for _, sk := range m {
		if gs, ok := sk.(GaugeSink); ok {
			gs.Gauge(g, value)
		}
	}
}

// Multi combines sinks into one, dropping nils: Multi() and Multi(nil)
// return nil (disabled), Multi(s) returns s unwrapped.
func Multi(sinks ...Sink) Sink {
	var out multi
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}

// FindRegistry returns the first *Registry reachable in s — s itself or a
// member of a Multi — or nil. Discover uses it to fill Result.Telemetry.
func FindRegistry(s Sink) *Registry {
	switch v := s.(type) {
	case *Registry:
		return v
	case multi:
		for _, sk := range v {
			if r := FindRegistry(sk); r != nil {
				return r
			}
		}
	}
	return nil
}
