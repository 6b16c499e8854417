package core

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"time"

	"pghive/internal/lsh"
	"pghive/internal/pg"
	"pghive/internal/schema"
)

// Checkpoint codec: a complete serialization of an in-flight discovery run —
// the evolving schema with its evidence, the data-type sampler counters, the
// embedding session, the label aligner, the per-batch reports and the stream
// position. A pipeline restored from a checkpoint continues the run exactly
// where the writer left off: feeding it the remaining batches yields a
// Finalize output byte-identical to an uninterrupted run (the crash/resume
// tests enforce this).
//
// Consistency under the overlapped engine: the extract frontier (schema,
// sampler, reports) always lags the preprocess frontier (session, aligner),
// so a checkpoint taken after extract(k) must NOT serialize the live session
// — it may already have trained on batches k+1, k+2, and in the adaptive-dim
// case even retrained every vector. The engine therefore snapshots the
// session/aligner state at preprocess(k) time and pairs it with the
// post-extract(k) schema, giving the resumed run the exact state the
// original run had when it began batch k+1.

// checkpointMagic versions the checkpoint format. PGCK11 keys exact degree
// rows by raw endpoint ID, written as ascending gaps, and drops the
// symtab's endpoint section that only the interned key needed (it skips
// PGCK10, the previous fleet container's magic). PGCK9 replaced the drift
// section with the epoch clock's whole state — tallies, drift quarantines
// and the last epoch included (see epoch.go) — and keeps only the fault
// quarantines in the header skip list; PGCK7 appended the drift section
// (epoch counter, window position, epoch baseline Def); PGCK5 added the
// self-describing evidence mode bytes — degree counters and value stats may
// serialize either as exact tables or as sketches (HLL + count-min + top-k,
// see schema/checkpoint.go) — and extended the fingerprint with the memory
// budget; PGCK3 introduced the symbol intern table (symtab serializes first
// so a resumed run reassigns the exact same IDs); PGCK2 added Load/Wall
// timing columns to the per-batch reports. Older checkpoints are rejected
// (resume from scratch rather than guess at an incompatible layout).
const checkpointMagic = "PGCK11"

// Codec bounds for untrusted counts; no count preallocates more than
// maxPrealloc entries.
const (
	maxSkipped  = 1 << 24
	maxReports  = 1 << 24
	maxSamples  = 1 << 24
	maxPrealloc = 1 << 12
)

// SkipReport records one quarantined batch: its stream slot and why it was
// poisoned or withheld.
type SkipReport struct {
	// Seq is the batch's slot in the source stream (delivered and
	// quarantined batches both advance the slot counter; retried transient
	// faults do not).
	Seq int
	// Reason describes the fault, from the source's error.
	Reason string
}

// fingerprint renders every configuration field that affects discovery
// output. A checkpoint written under one fingerprint cannot be resumed under
// another: the replayed batches would be processed differently and the
// byte-identity guarantee would silently break. Which Config fields it
// covers, and why the others are left out, is declared once in
// TestConfigFieldsClassified (config_fields_test.go), which fails when a
// field is added without a class.
func (c Config) fingerprint() string {
	fp := fmt.Sprintf("v3 m=%d th=%g emb=%+v lw=%g sem=%t al=%t at=%g as=%t np=%s ep=%s mhr=%d sdt=%t part=%t sf=%g smin=%d tm=%t mb=%d seed=%d",
		c.Method, c.Theta, c.Embedding, c.LabelWeight, c.SemanticLabels,
		c.AlignLabels, c.AlignThreshold, c.AlignSimilarity != nil,
		paramsFingerprint(c.NodeParams), paramsFingerprint(c.EdgeParams),
		c.MinHashRows, c.SampleDatatypes, c.Participation, c.SampleFraction,
		c.SampleMin, c.TrackMembers, c.MemBudgetBytes, c.Seed)
	// Only the quarantine policy decides which batches merge, so only it —
	// together with the epoch cadence that times its validation targets —
	// changes the discovered schema. Off, evolve and alert are
	// execution-only and share the unsuffixed fingerprint, so their
	// checkpoints cross-resume freely.
	if c.DriftPolicy == DriftQuarantine {
		fp += fmt.Sprintf(" dp=quarantine ei=%d", c.EpochInterval)
	}
	return fp
}

func paramsFingerprint(p *lsh.Params) string {
	if p == nil {
		return "auto"
	}
	return fmt.Sprintf("%+v", *p)
}

// stateSnapshot encodes the preprocess-frontier state (aligner + embedding
// session) into a self-delimiting byte string. Under the overlapped engine it
// is captured immediately after preprocess(seq) so a checkpoint emitted at
// extract(seq) pairs a consistent pair of frontiers.
func (p *Pipeline) stateSnapshot() ([]byte, error) {
	var buf bytes.Buffer
	w := pg.NewWireWriter(&buf)
	if p.aligner == nil {
		w.Bool(false)
	} else {
		w.Bool(true)
		order, canonical := p.aligner.State()
		w.Uvarint(uint64(len(order)))
		for _, rep := range order {
			w.String(rep)
		}
		labels := make([]string, 0, len(canonical))
		for l := range canonical {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		w.Uvarint(uint64(len(labels)))
		for _, l := range labels {
			w.String(l)
			w.String(canonical[l])
		}
	}
	if err := p.session.WriteState(w); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// restoreSnapshot decodes a stateSnapshot into the pipeline's aligner and
// session.
func (p *Pipeline) restoreSnapshot(r *pg.WireReader) error {
	hasAligner, err := r.Bool()
	if err != nil {
		return fmt.Errorf("aligner flag: %w", err)
	}
	if hasAligner {
		if p.aligner == nil {
			return fmt.Errorf("checkpoint carries aligner state but AlignLabels is off")
		}
		n, err := r.Uvarint(maxSamples)
		if err != nil {
			return err
		}
		order := make([]string, 0, min(n, maxPrealloc))
		for i := uint64(0); i < n; i++ {
			rep, err := r.String()
			if err != nil {
				return err
			}
			order = append(order, rep)
		}
		m, err := r.Uvarint(maxSamples)
		if err != nil {
			return err
		}
		canonical := make(map[string]string, min(m, maxPrealloc))
		for i := uint64(0); i < m; i++ {
			l, err := r.String()
			if err != nil {
				return err
			}
			if canonical[l], err = r.String(); err != nil {
				return err
			}
		}
		p.aligner.Restore(order, canonical)
	} else if p.aligner != nil {
		return fmt.Errorf("AlignLabels is on but checkpoint has no aligner state")
	}
	return p.session.ReadState(r)
}

// encodeCheckpoint writes the full checkpoint. snap is the preprocess-frontier
// snapshot to embed (from stateSnapshot); slots is the stream position
// consumed so far (delivered + quarantined batches); skipped lists the fault
// quarantines (the drift quarantines ride in the clock section).
func (p *Pipeline) encodeCheckpoint(w io.Writer, slots int, skipped []SkipReport, snap []byte) error {
	bw := pg.NewWireWriter(w)
	bw.Raw([]byte(checkpointMagic))
	bw.String(p.cfg.fingerprint())
	bw.Uvarint(uint64(slots))

	writeSkips(bw, skipped)

	bw.Uvarint(uint64(len(p.reports)))
	for _, r := range p.reports {
		writeReport(bw, r)
	}

	if err := schema.WriteSchema(bw, p.schema); err != nil {
		return err
	}
	p.sampler.writeState(bw)
	bw.Raw(snap)
	clock, err := encodeClock(p.clock)
	if err != nil {
		return err
	}
	bw.String(string(clock))
	return bw.Flush()
}

// EncodeCheckpoint serializes the pipeline's current state. The pipeline
// must be quiescent (no run in flight): the live session and aligner are
// snapshotted directly.
func (p *Pipeline) EncodeCheckpoint(w io.Writer, slots int, skipped []SkipReport) error {
	snap, err := p.stateSnapshot()
	if err != nil {
		return err
	}
	return p.encodeCheckpoint(w, slots, skipped, snap)
}

// ResumePipeline reconstructs a pipeline from a checkpoint. The provided
// config must match the writer's (fingerprint-checked): resuming under a
// different configuration would process the remaining batches differently
// and break the byte-identity guarantee. It returns the restored pipeline,
// the stream position to skip to, and the batches the fault puller
// quarantined before the checkpoint.
func ResumePipeline(r io.Reader, cfg Config) (*Pipeline, int, []SkipReport, error) {
	p := NewPipeline(cfg)
	br := pg.NewWireReader(r)
	if err := br.Expect(checkpointMagic); err != nil {
		return nil, 0, nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	fp, err := br.String()
	if err != nil {
		return nil, 0, nil, fmt.Errorf("core: checkpoint fingerprint: %w", err)
	}
	if want := p.cfg.fingerprint(); fp != want {
		return nil, 0, nil, fmt.Errorf("core: checkpoint was written under a different configuration:\n  checkpoint: %s\n  current:    %s", fp, want)
	}
	slots, err := br.Uvarint(1 << 40)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("core: checkpoint slots: %w", err)
	}

	skipped, err := readSkips(br)
	if err != nil {
		return nil, 0, nil, err
	}

	reportCount, err := br.Uvarint(maxReports)
	if err != nil {
		return nil, 0, nil, err
	}
	p.reports = make([]BatchReport, 0, min(reportCount, maxPrealloc))
	for i := uint64(0); i < reportCount; i++ {
		rep, err := readReport(br)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("core: checkpoint report %d: %w", i, err)
		}
		p.reports = append(p.reports, rep)
	}

	if p.schema, err = schema.ReadSchema(br); err != nil {
		return nil, 0, nil, fmt.Errorf("core: checkpoint schema: %w", err)
	}
	// The evidence policy is configuration, not state: re-derive it so the
	// decoded accumulators (whose sketch parameters are self-describing)
	// keep observing under the same caps the writer used.
	p.schema.SetEvidencePolicy(p.cfg.evidencePolicy())
	if err := p.sampler.readState(br); err != nil {
		return nil, 0, nil, fmt.Errorf("core: checkpoint sampler: %w", err)
	}
	if err := p.restoreSnapshot(br); err != nil {
		return nil, 0, nil, fmt.Errorf("core: checkpoint state: %w", err)
	}
	clock, err := br.String()
	if err != nil {
		return nil, 0, nil, fmt.Errorf("core: checkpoint epoch clock: %w", err)
	}
	if err := decodeClock([]byte(clock), p.clock); err != nil {
		return nil, 0, nil, err
	}
	return p, int(slots), skipped, nil
}

func writeSkips(w *pg.WireWriter, skipped []SkipReport) {
	w.Uvarint(uint64(len(skipped)))
	for _, s := range skipped {
		w.Varint(int64(s.Seq))
		w.String(s.Reason)
	}
}

func readSkips(r *pg.WireReader) ([]SkipReport, error) {
	n, err := r.Uvarint(maxSkipped)
	if err != nil {
		return nil, err
	}
	var skipped []SkipReport
	for i := uint64(0); i < n; i++ {
		seq, err := r.Varint()
		if err != nil {
			return nil, err
		}
		reason, err := r.String()
		if err != nil {
			return nil, err
		}
		skipped = append(skipped, SkipReport{Seq: int(seq), Reason: reason})
	}
	return skipped, nil
}

func writeReport(w *pg.WireWriter, r BatchReport) {
	w.Varint(int64(r.Batch))
	w.Varint(int64(r.Nodes))
	w.Varint(int64(r.Edges))
	w.Varint(int64(r.NodeClusters))
	w.Varint(int64(r.EdgeClusters))
	writeParams(w, r.NodeParams)
	writeParams(w, r.EdgeParams)
	w.Varint(int64(r.Load))
	w.Varint(int64(r.Preprocess))
	w.Varint(int64(r.Cluster))
	w.Varint(int64(r.Extract))
	w.Varint(int64(r.Wall))
}

func readReport(r *pg.WireReader) (BatchReport, error) {
	var rep BatchReport
	fields := []*int{&rep.Batch, &rep.Nodes, &rep.Edges, &rep.NodeClusters, &rep.EdgeClusters}
	for _, f := range fields {
		v, err := r.Varint()
		if err != nil {
			return rep, err
		}
		*f = int(v)
	}
	var err error
	if rep.NodeParams, err = readParams(r); err != nil {
		return rep, err
	}
	if rep.EdgeParams, err = readParams(r); err != nil {
		return rep, err
	}
	for _, d := range []*time.Duration{&rep.Load, &rep.Preprocess, &rep.Cluster, &rep.Extract, &rep.Wall} {
		v, err := r.Varint()
		if err != nil {
			return rep, err
		}
		*d = time.Duration(v)
	}
	return rep, nil
}

func writeParams(w *pg.WireWriter, p lsh.Params) {
	w.Float64(p.Mu)
	w.Float64(p.BBase)
	w.Float64(p.Alpha)
	w.Float64(p.Bucket)
	w.Varint(int64(p.Tables))
}

func readParams(r *pg.WireReader) (lsh.Params, error) {
	var p lsh.Params
	var err error
	if p.Mu, err = r.Float64(); err != nil {
		return p, err
	}
	if p.BBase, err = r.Float64(); err != nil {
		return p, err
	}
	if p.Alpha, err = r.Float64(); err != nil {
		return p, err
	}
	if p.Bucket, err = r.Float64(); err != nil {
		return p, err
	}
	tables, err := r.Varint()
	if err != nil {
		return p, err
	}
	p.Tables = int(tables)
	return p, nil
}

// writeState serializes the sampler's per-key observation counters, keyed
// by (kind tag | interned key ID) and written in sorted key order so the
// encoding is deterministic (frac/min/seed come from configuration). The
// IDs resolve against the schema symtab, which the checkpoint restores
// verbatim before the sampler state is read.
func (s *sampler) writeState(w *pg.WireWriter) {
	keys := make([]uint64, 0, len(s.counts))
	for k := range s.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.Uvarint(k)
		w.Varint(int64(s.counts[k]))
	}
}

func (s *sampler) readState(r *pg.WireReader) error {
	n, err := r.Uvarint(maxSamples)
	if err != nil {
		return err
	}
	counts := make(map[uint64]int, min(n, maxPrealloc))
	last := int64(-1)
	for i := uint64(0); i < n; i++ {
		k, err := r.Uvarint(^uint64(0))
		if err != nil {
			return err
		}
		if int64(k) <= last {
			return fmt.Errorf("sampler key %d out of order", k)
		}
		last = int64(k)
		c, err := r.Varint()
		if err != nil {
			return err
		}
		counts[k] = int(c)
	}
	s.counts = counts
	return nil
}
