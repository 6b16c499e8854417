package core

import (
	"bytes"
	"sync/atomic"
	"time"

	"pghive/internal/align"
	"pghive/internal/lsh"
	"pghive/internal/obs"
	"pghive/internal/pg"
	"pghive/internal/schema"
	"pghive/internal/vectorize"
)

// BatchReport records what happened while processing one batch: sizes,
// chosen LSH parameters, cluster counts and per-phase wall-clock durations
// (the timings behind Figures 5 and 7). Load and Wall are recorded even
// without a telemetry sink, so throughput reporting never requires one.
type BatchReport struct {
	Batch        int
	Nodes, Edges int
	NodeClusters int
	EdgeClusters int
	NodeParams   lsh.Params
	EdgeParams   lsh.Params
	// Load is the time spent pulling this batch from the source (under the
	// overlapped engine: the stall waiting on the load stage).
	Load       time.Duration
	Preprocess time.Duration
	Cluster    time.Duration
	Extract    time.Duration
	// Wall is the real elapsed time from the batch's pull to the end of its
	// extraction. Under the overlapped engine it includes queue waits, so
	// Wall ≥ Load + Preprocess + Cluster + Extract and the per-batch Wall
	// values of concurrent batches overlap.
	Wall time.Duration
	// Shard is the discovery shard that processed this batch (0 for
	// unsharded runs). Stamped by the shard-merge driver; memory-only, not
	// serialized into checkpoints (each shard checkpoints its own reports,
	// whose index already is the shard).
	Shard int
}

// Total returns the batch's end-to-end processing time (CPU-stage sum,
// excluding load and queue waits).
func (r BatchReport) Total() time.Duration { return r.Preprocess + r.Cluster + r.Extract }

// Throughput returns the batch's elements per second of stage time — the
// Total() it is reported beside (0 when no stage time was recorded). Queue
// waits are not in it: under the overlapped engine they are
// Wall − Load − Total().
func (r BatchReport) Throughput() float64 {
	t := r.Total()
	if t <= 0 {
		return 0
	}
	return float64(r.Nodes+r.Edges) / t.Seconds()
}

// Pipeline is an incremental PG-HIVE discovery session. Feed it batches
// with ProcessBatch; the schema grows monotonically (S_i ⊑ S_{i+1}).
type Pipeline struct {
	cfg     Config
	schema  *schema.Schema
	sampler *sampler
	aligner *align.Aligner
	session *vectorize.Session
	reports []BatchReport
	// clusterEst tracks the cluster count each kind produced on the most
	// recent batch — the presize hint for the next batch's signature
	// bucket map (atomic: cluster stages of different batches may run
	// concurrently under the overlapped engine).
	clusterEst [2]atomic.Int64
	instr      obs.Instr
	// lastSess is the session-stats frontier already emitted to the sink;
	// preprocess emits per-batch deltas against it (preprocess is
	// serialized, so no locking is needed).
	lastSess vectorize.SessionStats
	// clock is the run's epoch clock (epoch.go): nil when Config asks for
	// no drift policy and no OnEpoch hook, and for every shard pipeline.
	// Only the serialized extract point touches it, so no locking is
	// needed; its drift quarantines stay apart from the fault puller's skip
	// list, which lives on the load goroutine.
	clock *epochClock
}

// NewPipeline starts a discovery session.
func NewPipeline(cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	p := &Pipeline{
		cfg:     cfg,
		schema:  schema.NewSchema(),
		sampler: newSampler(cfg.SampleFraction, cfg.SampleMin, cfg.Seed),
		session: vectorize.NewSession(cfg.vectorizeConfig()),
		instr:   obs.NewInstr(cfg.Telemetry),
	}
	p.schema.SetEvidencePolicy(cfg.evidencePolicy())
	p.clock = newEpochClock(cfg, p.instr)
	if cfg.AlignLabels {
		// The aligner persists across batches so alignment classes stay
		// stable throughout an incremental run.
		p.aligner = align.NewAligner(cfg.AlignSimilarity, cfg.AlignThreshold)
	}
	return p
}

// Aligner exposes the label aligner (nil unless AlignLabels is set), so
// callers can report the discovered alignment classes.
func (p *Pipeline) Aligner() *align.Aligner { return p.aligner }

// alignBatch rewrites label slices through the aligner without mutating
// the caller's data (label slices alias graph storage).
func (p *Pipeline) alignBatch(b *pg.Batch) *pg.Batch {
	if p.aligner == nil {
		return b
	}
	out := &pg.Batch{
		Nodes: make([]pg.NodeRecord, len(b.Nodes)),
		Edges: make([]pg.EdgeRecord, len(b.Edges)),
	}
	copy(out.Nodes, b.Nodes)
	copy(out.Edges, b.Edges)
	for i := range out.Nodes {
		out.Nodes[i].Labels = p.aligner.CanonicalSet(out.Nodes[i].Labels)
	}
	for i := range out.Edges {
		out.Edges[i].Labels = p.aligner.CanonicalSet(out.Edges[i].Labels)
		out.Edges[i].SrcLabels = p.aligner.CanonicalSet(out.Edges[i].SrcLabels)
		out.Edges[i].DstLabels = p.aligner.CanonicalSet(out.Edges[i].DstLabels)
	}
	return out
}

// Schema returns the evolving schema (do not mutate during processing).
func (p *Pipeline) Schema() *schema.Schema { return p.schema }

// Reports returns one report per processed batch.
func (p *Pipeline) Reports() []BatchReport { return p.reports }

// Config returns the effective configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// staged is a batch after the preprocess stage: aligned, vectorized, and
// ready to cluster. seq is the absolute batch index within the run (the
// Batch the report will carry once extracted in order); pos is its stream
// position. skipped and snap are its checkpoint material, set only when
// checkpointing: the quarantine list as of its pull and the
// preprocess-frontier snapshot.
type staged struct {
	seq     int
	pos     int
	b       *pg.Batch
	vz      *vectorize.Vectorizer
	start   time.Time // preprocess begin; anchors the report's Wall
	report  BatchReport
	skipped []SkipReport
	snap    []byte
}

// computed is a batch after the cluster stage, awaiting ordered extraction.
type computed struct {
	staged
	nodeClusters []lsh.Cluster
	edgeClusters []lsh.Cluster
}

// slot maps a batch sequence number onto its pipeline-depth slot — the
// trace track the batch's spans render on.
func (p *Pipeline) slot(seq int) int {
	if d := p.cfg.PipelineDepth; d > 1 {
		return seq % d
	}
	return 0
}

// ProcessBatch runs the main pipeline of Algorithm 1 (lines 3-6) on one
// batch: preprocess into vectors/sets, LSH-cluster nodes and edges, build
// cluster representatives, and merge them into the schema via Algorithm 2.
// It calls the engine's stage functions one after another; Run overlaps
// them across batches when Config.PipelineDepth > 1.
func (p *Pipeline) ProcessBatch(b *pg.Batch) BatchReport {
	seq := p.nextSeq()
	return p.extractChecked(p.cluster(p.preprocess(b, seq)), seq)
}

// nextSeq is the next batch sequence number for serial feeding: processed
// batches plus any the drift policy quarantined (which consumed a sequence
// number but produced no report).
func (p *Pipeline) nextSeq() int {
	n := len(p.reports)
	if p.clock != nil {
		n += p.clock.quarantined
	}
	return n
}

// loadSpan emits the load-stage span for one pulled batch.
func (p *Pipeline) loadSpan(seq int, b *pg.Batch, start time.Time, d time.Duration) {
	p.instr.Span(obs.Span{
		Stage: obs.StageLoad, Batch: seq, Slot: p.slot(seq),
		Start: start, Duration: d,
		Elements: len(b.Nodes) + len(b.Edges),
	})
}

// preprocess aligns and vectorizes one batch. Calls must happen in batch
// order: the aligner and the embedding session are order-dependent.
func (p *Pipeline) preprocess(b *pg.Batch, seq int) staged {
	st := staged{seq: seq, report: BatchReport{
		Nodes: len(b.Nodes),
		Edges: len(b.Edges),
	}}
	start := time.Now()
	st.start = start
	st.b = p.alignBatch(b)
	st.vz = p.session.Vectorize(st.b)
	st.report.Preprocess = time.Since(start)
	if p.instr.Enabled() {
		ss := p.session.Stats()
		p.instr.Add(obs.CtrEmbedTokensReused, ss.TokensReused-p.lastSess.TokensReused)
		p.instr.Add(obs.CtrEmbedTokensTrained, ss.TokensTrained-p.lastSess.TokensTrained)
		p.instr.Add(obs.CtrEmbedRetrains, ss.Retrains-p.lastSess.Retrains)
		p.lastSess = ss
		p.instr.Span(obs.Span{
			Stage: obs.StagePreprocess, Batch: seq, Slot: p.slot(seq),
			Start: start, Duration: st.report.Preprocess,
			Elements: st.report.Nodes + st.report.Edges,
		})
	}
	return st
}

// extract builds cluster representatives and merges them into the schema
// (Algorithm 2). It mutates shared, order-dependent state (schema, sampler)
// and must be called in batch order.
func (p *Pipeline) extract(c computed) BatchReport {
	c.report.Batch = len(p.reports)
	start := time.Now()
	p.internBatch(c.b)
	nodeCands := p.nodeCandidates(c.b, c.nodeClusters)
	edgeCands := p.edgeCandidates(c.b, c.edgeClusters)
	typesBefore := 0
	if p.instr.Enabled() {
		typesBefore = len(p.schema.Types(schema.NodeKind)) + len(p.schema.Types(schema.EdgeKind))
	}
	schema.MergeTypes(p.schema, schema.NodeKind, nodeCands, p.cfg.Theta)
	schema.MergeTypes(p.schema, schema.EdgeKind, edgeCands, p.cfg.Theta)
	c.report.Extract = time.Since(start)
	if !c.start.IsZero() {
		// Wall spans the batch's pull through its extraction: the load time
		// plus everything since preprocess began (including queue waits
		// under the overlapped engine).
		c.report.Wall = c.report.Load + time.Since(c.start)
	}
	p.reports = append(p.reports, c.report)
	if p.instr.Enabled() {
		created := len(p.schema.Types(schema.NodeKind)) + len(p.schema.Types(schema.EdgeKind)) - typesBefore
		p.instr.Add(obs.CtrTypesCreated, uint64(created))
		p.instr.Add(obs.CtrTypesMerged, uint64(len(nodeCands)+len(edgeCands)-created))
		p.instr.Add(obs.CtrBatches, 1)
		p.instr.Add(obs.CtrNodes, uint64(c.report.Nodes))
		p.instr.Add(obs.CtrEdges, uint64(c.report.Edges))
		p.instr.Add(obs.CtrNodeClusters, uint64(c.report.NodeClusters))
		p.instr.Add(obs.CtrEdgeClusters, uint64(c.report.EdgeClusters))
		p.instr.Span(obs.Span{
			Stage: obs.StageExtract, Batch: c.report.Batch, Slot: p.slot(c.seq),
			Start: start, Duration: c.report.Extract,
			Elements: c.report.Nodes + c.report.Edges,
		})
		p.instr.Gauge(obs.GaugeEvidenceBytes, uint64(p.schema.EvidenceBytes()))
	}
	return c.report
}

// extractChecked is the clock's gate in front of extract: at the serialized
// extract point, strictly in batch order, the clock validates the batch
// against the current epoch, enforces the policy and advances its window,
// and when the window is full it takes an epoch at the finalized schema.
// slot is the batch's stream slot for quarantine skip reports. A
// quarantined batch returns a zero report and is not appended to p.reports,
// matching the fault path's skip semantics.
func (p *Pipeline) extractChecked(c computed, slot int) BatchReport {
	if p.clock == nil {
		return p.extract(c)
	}
	var rep BatchReport
	if p.clock.gate(c.b, c.seq, slot, p.slot(c.seq)) {
		rep = p.extract(c)
	}
	if p.clock.due() {
		start := time.Now()
		p.clock.take(p.cfg.finalize(p.schema), len(p.reports), c.seq, false, start)
	}
	return rep
}

// kindSpec parameterizes clustering over the element kind, deduplicating
// the former clusterNodes/clusterEdges bodies. Seeds are offset per kind so
// node and edge hash families stay independent.
type kindSpec struct {
	n           int
	isEdge      bool
	labelTokens int
	enc         func() *vectorize.Encoding
}

func nodeSpec(b *pg.Batch, vz *vectorize.Vectorizer) kindSpec {
	return kindSpec{
		n:           len(b.Nodes),
		labelTokens: vz.LabelTokens(),
		enc:         func() *vectorize.Encoding { return vz.NodeEncoding(b) },
	}
}

func edgeSpec(b *pg.Batch, vz *vectorize.Vectorizer) kindSpec {
	return kindSpec{
		n:           len(b.Edges),
		isEdge:      true,
		labelTokens: vz.LabelTokens(),
		enc:         func() *vectorize.Encoding { return vz.EdgeEncoding(b) },
	}
}

// clusterKind clusters one element kind with the configured method and
// returns the clusters plus the parameters used. It only reads the
// Vectorizer snapshot captured in the spec, so different kinds — and
// different batches — may cluster concurrently.
func (p *Pipeline) clusterKind(spec kindSpec) ([]lsh.Cluster, lsh.Params) {
	clusters, params := p.clusterKindInner(spec)
	p.clusterEst[kindIndex(spec.isEdge)].Store(int64(len(clusters)))
	if p.instr.Enabled() && len(clusters) > 0 {
		hist := obs.HistNodeOccupancy
		if spec.isEdge {
			hist = obs.HistEdgeOccupancy
		}
		for _, c := range clusters {
			p.instr.Observe(hist, uint64(len(c.Members)))
		}
	}
	return clusters, params
}

func kindIndex(isEdge bool) int {
	if isEdge {
		return 1
	}
	return 0
}

// bucketHint returns the presize hint for a signature bucket map: the
// cluster count the kind produced on the previous batch plus headroom.
// Batches of one stream keep yielding roughly the same clusters, so this
// tracks the true bucket count far better than the n/4+1 default; 0 (first
// batch) falls back to that default.
func (p *Pipeline) bucketHint(isEdge bool) int {
	est := int(p.clusterEst[kindIndex(isEdge)].Load())
	if est <= 0 {
		return 0
	}
	return est + est/8 + 16
}

func (p *Pipeline) clusterKindInner(spec kindSpec) ([]lsh.Cluster, lsh.Params) {
	n := spec.n
	if n == 0 {
		return nil, lsh.Params{}
	}
	params := p.cfg.NodeParams
	mhSeed, adaptSeed, famSeed := int64(101), int64(11), int64(102)
	if spec.isEdge {
		params = p.cfg.EdgeParams
		mhSeed, adaptSeed, famSeed = 201, 12, 202
	}
	// One factored encoding feeds adaptation and both kernels; no element
	// is ever rendered as a dense vector.
	enc := spec.enc()
	if params == nil {
		adapted := lsh.AdaptParams(enc.Prefixes, enc.Dim-enc.PrefixDim, n, func(i int) (int, []int32) {
			r := enc.Records[i]
			return r.TokenID, r.Props
		}, spec.labelTokens, spec.isEdge, p.cfg.Seed+adaptSeed)
		params = &adapted
	}
	if p.cfg.Method == MethodMinHash {
		mh := lsh.NewMinHash(params.Tables, p.cfg.Seed+mhSeed)
		return p.clusterMinHashFactored(spec, enc, mh), *params
	}
	fam := lsh.NewELSH(enc.Dim, params.Bucket, params.Tables, p.cfg.Seed+famSeed)
	fk := lsh.NewFactoredELSH(fam, enc.PrefixDim, enc.Prefixes)
	// The factored kernel computes one projection-dot set per distinct
	// label prefix; every further element sharing that prefix is a hit.
	p.instr.Add(obs.CtrPrefixDotsComputed, uint64(len(enc.Prefixes)))
	p.instr.Add(obs.CtrPrefixDotHits, uint64(n-len(enc.Prefixes)))
	hashes := make([]uint64, n)
	parmapChunks(n, p.cfg.Parallelism, func(lo, hi int) {
		h := fk.Hasher()
		for i := lo; i < hi; i++ {
			r := enc.Records[i]
			hashes[i] = h.SignatureHash(r.TokenID, r.Props)
		}
	})
	return lsh.GroupByHashSized(hashes, p.bucketHint(spec.isEdge)), *params
}

// clusterMinHashFactored is the factored MinHash path: elements sharing a
// record (prefix tokens + property-index set — the common case, most
// elements share a type) are deduplicated and each distinct record's
// signature is computed once. Exact-key dedup keeps the per-element hashes
// bit-identical to hashing every element's token set (the dense reference
// of TestFactoredMatchesDense).
func (p *Pipeline) clusterMinHashFactored(spec kindSpec, enc *vectorize.Encoding, mh *lsh.MinHash) []lsh.Cluster {
	recID, reps := enc.DistinctRecords()
	// One signature per distinct record; every duplicate record is a hit.
	p.instr.Add(obs.CtrRecordSigsComputed, uint64(len(reps)))
	p.instr.Add(obs.CtrRecordSigHits, uint64(spec.n-len(reps)))
	if p.cfg.MinHashRows > 0 {
		distinct := make([][]uint64, len(reps))
		parmapChunks(len(reps), p.cfg.Parallelism, func(lo, hi int) {
			var set []uint64
			for j := lo; j < hi; j++ {
				set = enc.AppendSet(set[:0], reps[j])
				distinct[j] = mh.Signature(set)
			}
		})
		sigs := make([][]uint64, spec.n)
		for i, id := range recID {
			sigs[i] = distinct[id]
		}
		return mh.ClusterBandedSignatures(sigs, p.cfg.MinHashRows)
	}
	distinct := make([]uint64, len(reps))
	parmapChunks(len(reps), p.cfg.Parallelism, func(lo, hi int) {
		var set []uint64
		for j := lo; j < hi; j++ {
			set = enc.AppendSet(set[:0], reps[j])
			distinct[j] = mh.SignatureHash(set)
		}
	})
	hashes := make([]uint64, spec.n)
	for i, id := range recID {
		hashes[i] = distinct[id]
	}
	return lsh.GroupByHashSized(hashes, p.bucketHint(spec.isEdge))
}

// internBatch pre-interns every label, property key and endpoint ID the
// batch's candidate builders will touch. extract is serialized in batch
// order, so interning here is single-threaded — ID assignment is
// deterministic in stream order — and the parallel candidate observers
// below only perform read-only symtab lookups (Intern hits on every call),
// making the shared table race-free without locking.
func (p *Pipeline) internBatch(b *pg.Batch) {
	tab := p.schema.Tab
	// Under a sketched degree policy endpoint IDs are folded straight into
	// the sketches keyed by their raw global values, so the symtab endpoint
	// table — the dominant retained allocation on endpoint-heavy streams —
	// is never populated.
	internEps := true
	if pol := tab.Evidence(); pol != nil && pol.SketchDegrees {
		internEps = false
	}
	for i := range b.Nodes {
		n := &b.Nodes[i]
		for _, l := range n.Labels {
			tab.Intern(l)
		}
		for k := range n.Props {
			tab.Intern(k)
		}
	}
	for i := range b.Edges {
		e := &b.Edges[i]
		for _, l := range e.Labels {
			tab.Intern(l)
		}
		for _, l := range e.SrcLabels {
			tab.Intern(l)
		}
		for _, l := range e.DstLabels {
			tab.Intern(l)
		}
		for k := range e.Props {
			tab.Intern(k)
		}
		if internEps {
			tab.InternEp(e.Src)
			tab.InternEp(e.Dst)
		}
	}
}

// nodeCandidates turns node clusters into candidate types (cluster
// representatives, §4.2): labels and property keys are unioned over the
// members, and per-property evidence is accumulated. The batch must have
// been pre-interned (internBatch), so the parallel observers only read the
// symtab. The data-type sample is drawn afterwards, in the serial run's
// ordinal order (sampler.sampleCandidates).
func (p *Pipeline) nodeCandidates(b *pg.Batch, clusters []lsh.Cluster) []*schema.Type {
	out := make([]*schema.Type, len(clusters))
	parmap(len(clusters), p.cfg.Parallelism, func(ci int) {
		t := p.schema.NewType(schema.NodeKind)
		for _, i := range clusters[ci].Members {
			t.ObserveNode(&b.Nodes[i], p.cfg.TrackMembers)
		}
		out[ci] = t
	})
	p.sampler.sampleCandidates(sampleNodes, out, clusters,
		func(i int) pg.Properties { return b.Nodes[i].Props }, p.cfg.Parallelism)
	return out
}

// edgeCandidates mirrors nodeCandidates for edge clusters.
func (p *Pipeline) edgeCandidates(b *pg.Batch, clusters []lsh.Cluster) []*schema.Type {
	out := make([]*schema.Type, len(clusters))
	parmap(len(clusters), p.cfg.Parallelism, func(ci int) {
		t := p.schema.NewType(schema.EdgeKind)
		for _, i := range clusters[ci].Members {
			t.ObserveEdge(&b.Edges[i], p.cfg.TrackMembers)
		}
		out[ci] = t
	})
	p.sampler.sampleCandidates(sampleEdges, out, clusters,
		func(i int) pg.Properties { return b.Edges[i].Props }, p.cfg.Parallelism)
	return out
}

// Finalize runs post-processing (Algorithm 1 lines 7-10) and returns the
// finalized schema definition, which also closes the run's epoch clock: the
// final epoch carries this Def.
func (p *Pipeline) Finalize() *schema.Def {
	start := time.Now()
	def := p.cfg.finalize(p.schema)
	p.instr.Span(obs.Span{
		Stage: obs.StagePostprocess, Batch: -1,
		Start: start, Duration: time.Since(start),
		Elements: len(def.Nodes) + len(def.Edges),
	})
	p.clock.close(def, len(p.reports))
	return def
}

// Result is the outcome of a full discovery run.
type Result struct {
	// Def is the finalized schema definition.
	Def *schema.Def
	// Schema is the raw accumulated schema with evidence.
	Schema *schema.Schema
	// Reports holds one entry per processed batch.
	Reports []BatchReport
	// Skipped lists the batches quarantined as poisoned or by the drift
	// quarantine policy (empty for Discover without drift quarantine).
	Skipped []SkipReport
	// Drift summarizes the run's streaming conformance activity (nil when
	// Config.DriftPolicy is DriftOff).
	Drift *DriftSummary
	// Discovery is the total time spent in the main pipeline (load +
	// preprocess + cluster + extract), the quantity Figure 5 plots.
	Discovery time.Duration
	// PostProcess is the time spent finalizing constraints, data types and
	// cardinalities.
	PostProcess time.Duration
	// Telemetry is the run's aggregated metrics snapshot, present when
	// Config.Telemetry is (or fans out to) an *obs.Registry; nil otherwise.
	Telemetry *obs.Snapshot
}

// telemetrySnapshot captures the registry snapshot behind cfg.Telemetry,
// if any.
func telemetrySnapshot(cfg Config) *obs.Snapshot {
	reg := obs.FindRegistry(cfg.Telemetry)
	if reg == nil {
		return nil
	}
	return reg.Snapshot()
}

// Run is the discovery run every entry point goes through: Algorithm 1
// over a fallible source, finalized. Transient source faults are retried in
// place and poisoned batches are quarantined into Result.Skipped.
// cfg.Shards > 1 partitions the stream across that many pipelines and
// merges their schemas (shards.go); otherwise one pipeline drains it, and
// every PipelineDepth gives the same bytes. opts.Checkpoint saves the run
// state after every extracted batch; opts.Resume continues from such a
// state over a replay of the stream and finalizes byte-identically to an
// uninterrupted run. A permanent source failure or a failed save stops the
// run with its error; progress up to it lives in the last checkpoint.
func Run(src pg.ErrSource, cfg Config, opts RunOptions) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.MemBudgetBytes > 0 {
		obs.NewInstr(cfg.Telemetry).Gauge(obs.GaugeMemBudgetBytes, uint64(cfg.MemBudgetBytes))
	}
	if cfg.Shards > 1 {
		return runSharded(src, cfg, opts)
	}
	p := NewPipeline(cfg)
	var from resumeState
	if opts.Resume != nil {
		var err error
		if p, from.slots, from.skipped, err = ResumePipeline(bytes.NewReader(opts.Resume), cfg); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	skipped, err := p.drainFT(src, opts.Checkpoint, from)
	if err != nil {
		return nil, err
	}
	discovery := time.Since(start)

	start = time.Now()
	def := p.Finalize()
	return &Result{
		Def:         def,
		Schema:      p.schema,
		Reports:     p.reports,
		Skipped:     skipped,
		Drift:       p.clock.summary(),
		Discovery:   discovery,
		PostProcess: time.Since(start),
		Telemetry:   telemetrySnapshot(p.cfg),
	}, nil
}

// Discover is Run over an infallible source without checkpoints, which
// cannot fail.
func Discover(src pg.Source, cfg Config) *Result {
	res, _ := Run(pg.AsErrSource(src), cfg, RunOptions{}) // an infallible source without a checkpointer cannot fail
	return res
}

// DiscoverSharded is Discover.
//
// Deprecated: Discover honours Config.Shards; call it instead.
func DiscoverSharded(src pg.Source, cfg Config) *Result { return Discover(src, cfg) }
