// Package core implements the PG-HIVE schema-discovery pipeline: Algorithm 1
// (batch loop: preprocess → LSH clustering → type extraction → optional
// post-processing) and Algorithm 2 (extracting and merging types), including
// the incremental mode in which every batch's clusters are merged into the
// running schema under the monotone rules of §4.6.
package core

import (
	"reflect"
	"runtime"
	"sync"

	"pghive/internal/infer"
	"pghive/internal/lsh"
	"pghive/internal/obs"
	"pghive/internal/schema"
	"pghive/internal/vectorize"
)

// Method selects the LSH clustering family (§4.2).
type Method uint8

// Clustering methods.
const (
	// MethodELSH clusters the hybrid embedding+indicator vectors with
	// Euclidean (p-stable) LSH.
	MethodELSH Method = iota
	// MethodMinHash clusters the token-set representation with MinHash.
	MethodMinHash
)

// String names the method the way the paper does.
func (m Method) String() string {
	switch m {
	case MethodELSH:
		return "PG-HIVE-ELSH"
	case MethodMinHash:
		return "PG-HIVE-MinHash"
	default:
		return "PG-HIVE-?"
	}
}

// fieldClass is a Config field's checkpoint class, declared once in the
// field's `checkpoint` tag: fingerprint renders from it, and the tests of the
// classes and of the execution-only contract read the same tags.
type fieldClass string

const (
	fingerprinted  fieldClass = "fingerprinted"   // can change the schema: resume is refused under another value
	executionOnly  fieldClass = "execution-only"  // never changes the schema: checkpoints resume across values
	quarantineOnly fieldClass = "quarantine-only" // changes the schema only under DriftQuarantine
	sectionCount   fieldClass = "section-count"   // recorded by the checkpoint's section count, one per pipeline
)

func classOf(f reflect.StructField) fieldClass { return fieldClass(f.Tag.Get("checkpoint")) }

// Config controls a discovery run. Its zero value is the paper's
// configuration apart from Seed, which DefaultConfig sets to 1: adaptive LSH
// parameters, θ = 0.9, 10 %/≥1000 data-type sampling, labels embedded by one
// 16-dimensional Word2Vec model (embed.DefaultConfig). Each field's
// `checkpoint` tag declares its checkpoint class (fieldClass).
type Config struct {
	// Method is the clustering family.
	Method Method `checkpoint:"fingerprinted"`
	// Theta is the Jaccard merge threshold θ of Algorithm 2 (0 means 0.9).
	Theta float64 `checkpoint:"fingerprinted"`
	// LabelWeight scales the embedding block relative to the binary
	// property indicators (0 means vectorize.DefaultLabelWeight, 2).
	LabelWeight float64 `checkpoint:"fingerprinted"`
	// SemanticLabels trains the label embedding on multi-label
	// co-occurrence so overlapping label sets attract (off by default;
	// see vectorize.Config.SemanticLabels).
	SemanticLabels bool `checkpoint:"fingerprinted"`
	// AlignLabels enables label alignment for integration scenarios (the
	// paper's future-work item (c)): label variants such as Organization /
	// Organisation are canonicalized before clustering, so sources with
	// inconsistent label conventions land in shared types. Two labels align
	// when their normalized edit distance over folded labels gives a
	// similarity of at least 0.8 (align.DefaultSimilarity).
	AlignLabels bool `checkpoint:"fingerprinted"`
	// NodeParams and EdgeParams override the adaptive LSH parameters when
	// non-nil (the paper's manual mode; Figure 6 sweeps these).
	NodeParams *lsh.Params `checkpoint:"fingerprinted"`
	EdgeParams *lsh.Params `checkpoint:"fingerprinted"`
	// MinHashRows, when > 0, switches MinHash clustering to banded mode
	// with that many rows per band; 0 groups by the full signature.
	MinHashRows int `checkpoint:"fingerprinted"`
	// SampleDatatypes makes Finalize use the sample-based data-type
	// inference (the paper's optional flag, §4.4).
	SampleDatatypes bool `checkpoint:"fingerprinted"`
	// Participation enables edge lower-bound analysis in Finalize: the
	// cardinality lower bound upgrades from 0 to 1 when every source-type
	// instance carries such an edge (the paper's §4.4 future-work step).
	Participation bool `checkpoint:"fingerprinted"`
	// SampleFraction and SampleMin control the data-type sample: every
	// property's first SampleMin observations are always sampled, then a
	// SampleFraction share of the rest (0 means the paper's 10 % and at
	// least 1000).
	SampleFraction float64 `checkpoint:"fingerprinted"`
	SampleMin      int     `checkpoint:"fingerprinted"`
	// TrackMembers records per-type member element IDs (needed by the
	// evaluation harness to compute F1*; costs memory).
	TrackMembers bool `checkpoint:"fingerprinted"`
	// Parallelism bounds the worker goroutines of the cluster stage
	// (signature hashing, node and edge clustering side by side) and of
	// candidate building (evidence observation and the data-type sample);
	// 0 means GOMAXPROCS. The discovered schema, the data-type sample
	// included, is the same at every value.
	Parallelism int `checkpoint:"execution-only"`
	// Telemetry receives execution events during the run: per-stage spans,
	// counters (batches, elements, clusters, retries, cache hits, checkpoint
	// bytes) and LSH bucket-occupancy histograms. nil disables
	// instrumentation — the no-op path costs zero allocations and is pinned
	// by a benchmark. The sink must be safe for concurrent use: the
	// overlapped engine emits from several goroutines.
	Telemetry obs.Sink `checkpoint:"execution-only"`
	// Shards partitions the element stream across that many independent
	// discovery pipelines — each with its own schema, sampler and embedding
	// session — whose partial schemas are merged when the stream ends, and at
	// every epoch cut of a run with an epoch clock. Every entry point honours
	// it (Run, Discover, serve.Ingest, soak.Run). Elements are assigned to
	// shards by a fixed hash of their IDs (pg.PartitionBatch), so the
	// partition is deterministic and batch-boundary independent. The run's
	// one epoch clock (drift gate and epochs) belongs to the shard router,
	// which checks each whole source batch before partitioning it; shard
	// pipelines run no drift. 0 or 1 runs the single unsharded pipeline.
	// Values > 1 produce a deterministic schema for a fixed (Seed, Shards),
	// but not byte-identical to the serial run: each shard clusters and
	// samples only its own elements, so abstract-type composition and
	// SampleKinds can differ (see DESIGN.md §11). Not part of the checkpoint
	// fingerprint — a checkpoint holds one section per pipeline, and its
	// section count must equal max(Shards, 1) to resume.
	Shards int `checkpoint:"section-count"`
	// MemBudgetBytes caps the evidence layer's retained memory. 0 (the
	// default) keeps today's exact accumulators: per-endpoint degree
	// counters and per-property value hash sets, whose memory grows with
	// the number of distinct endpoints and values. A positive budget
	// switches the schema to sketch-backed evidence (HyperLogLog distinct
	// counts, count-min + space-saving degree maxima) sized by
	// schema.PolicyForBudget, so retained evidence memory is constant in
	// stream size. Sketched evidence changes what the constraints see —
	// uniqueness and max-degree become statistical estimates — so the
	// budget is part of the checkpoint fingerprint.
	MemBudgetBytes int64 `checkpoint:"fingerprinted"`
	// DriftPolicy enables streaming conformance checking: the run's epoch
	// clock validates every batch against the schema of the current epoch
	// before its candidates merge, and classified violations flow out as
	// obs drift counters and drift-log records (see drift.go, epoch.go).
	// DriftOff (the zero value) disables validation entirely. Evolve and
	// alert leave the schema byte-identical to a validator-free run; only
	// quarantine, which withholds violating batches from the merge, can
	// change it.
	DriftPolicy DriftPolicy `checkpoint:"quarantine-only"`
	// EpochInterval is the epoch window length: every that many batches
	// through the clock's gate (merged or quarantined), the run's epoch clock
	// snapshots the finalized schema, diffs it against the previous epoch
	// and installs it as the new validation target. A sharded run counts
	// source batches at the router, so its epochs fall where the unsharded
	// run's do. 0 means DefaultEpochInterval.
	EpochInterval int `checkpoint:"quarantine-only"`
	// DriftLog, when non-nil, receives JSONL drift records from the run's
	// epoch clock: classified violation batches (under alert and quarantine
	// only; evolve counts without logging) and epoch diffs. Execution-only.
	DriftLog *DriftLog `checkpoint:"execution-only"`
	// OnEpoch, when non-nil, receives an EpochSnapshot at every epoch
	// boundary — the resident schema service's publication hook. Setting it
	// activates the epoch clock even under DriftPolicy off (snapshot + diff
	// every EpochInterval batches, no validation), so a server can publish
	// copy-on-write schema epochs without paying for conformance checking.
	// Every successful run with a clock ends with exactly one Final snapshot
	// whose Def is Result.Def (see EpochSnapshot.Final). The hook runs on the
	// clock owner's goroutine — the single pipeline's extract point, or the
	// shard router at a consistent cut where every shard has folded what it
	// was routed, so a fleet epoch is byte-identical to Discover over the
	// batches before the cut — and must return quickly; the snapshot Def is
	// immutable and safe to retain. It observes the schema but never feeds
	// back.
	OnEpoch func(EpochSnapshot) `checkpoint:"execution-only"`
	// PipelineDepth controls the staged batch execution engine every entry
	// point runs (engine.go). Values > 1 allow that many batches in flight at
	// once: a load goroutine keeps the next batch pulled while the current
	// one computes, preprocessing and LSH clustering of batch i+1 overlap
	// candidate-building/extraction of batch i, and node and edge
	// clustering of the same batch run concurrently. Extraction into the
	// shared schema stays serialized in batch order, so the finalized
	// schema is byte-identical to a serial run with the same seed (the
	// monotone guarantee S_i ⊑ S_{i+1} is scheduling-independent).
	// 1 runs the same stages inline; 0 means DefaultPipelineDepth.
	PipelineDepth int `checkpoint:"execution-only"`
	// Seed drives the LSH hash families, adaptive parameter sampling and the
	// data-type sample. The Word2Vec label model always trains with seed 1
	// (embed.DefaultConfig), whatever Seed is.
	Seed int64 `checkpoint:"fingerprinted"`
}

// DefaultPipelineDepth is the batch-overlap depth used when
// Config.PipelineDepth is 0: deep enough to keep the load, cluster and
// extract stages all busy, shallow enough to bound resident batches.
const DefaultPipelineDepth = 4

// DefaultConfig returns the paper's configuration: the zero Config with
// Seed 1. withDefaults fills in the rest.
func DefaultConfig() Config { return Config{Seed: 1} }

// withDefaults resolves every field whose zero value means a default, so
// that two configurations that run alike fingerprint alike.
func (c Config) withDefaults() Config {
	if c.Theta <= 0 {
		c.Theta = 0.9
	}
	if c.LabelWeight <= 0 {
		c.LabelWeight = vectorize.DefaultLabelWeight
	}
	if c.SampleFraction <= 0 {
		c.SampleFraction = 0.10
	}
	if c.SampleMin <= 0 {
		c.SampleMin = 1000
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = DefaultPipelineDepth
	}
	if c.EpochInterval <= 0 {
		c.EpochInterval = DefaultEpochInterval
	}
	return c
}

// evidencePolicy derives the schema evidence policy from the memory budget:
// nil (exact evidence) when no budget is set, otherwise the sketch
// parameters PolicyForBudget picks for the budget tier.
func (c Config) evidencePolicy() *schema.EvidencePolicy {
	if c.MemBudgetBytes <= 0 {
		return nil
	}
	return schema.PolicyForBudget(c.MemBudgetBytes)
}

// finalize runs the post-processing of Algorithm 1 (lines 7-10) over s.
func (c Config) finalize(s *schema.Schema) *schema.Def {
	return infer.Finalize(s, infer.Options{
		SampleBased:   c.SampleDatatypes,
		Participation: c.Participation,
	})
}

// parmap runs f(i) for i in [0, n) across at most workers goroutines.
// Results written to index-disjoint slots keep the computation
// deterministic.
func parmap(n, workers int, f func(i int)) {
	parmapChunks(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// parmapChunks partitions [0, n) into at most workers contiguous ranges and
// runs f(lo, hi) on each, one range per goroutine — the chunked variant for
// workers that carry per-goroutine scratch (e.g. a factored-LSH hasher).
func parmapChunks(n, workers int, f func(lo, hi int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
