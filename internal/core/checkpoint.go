package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	"pghive/internal/lsh"
	"pghive/internal/pg"
	"pghive/internal/schema"
)

// Checkpoint codec: what extract produced in an in-flight discovery run,
// in one format for both run shapes. A header the run owns comes first —
// the configuration fingerprint, the section count, the stream position,
// the fault quarantines and the epoch clock — then one length-prefixed
// section per pipeline: its own stream position, batch reports, schema
// (symtab first) with its evidence, and data-type sampler counters. A
// single pipeline writes one section; a fleet writes one per shard
// (shards.go). One function, restore, decodes it for every caller.
//
// The preprocess state — the label aligner and the embedding session — is
// not in it. It is a function of the good batches preprocessed so far, in
// stream order, so a resumed pipeline rebuilds it by preprocessing again
// the batches of its resume window, the stream slots its section already
// folded in (Pipeline.replay). Fed the rest of the stream, the restored run
// then finalizes byte-identically to an uninterrupted run (the crash/resume
// tests enforce this).

// checkpointMagic versions the checkpoint format, the one both run shapes
// write. Bump it whenever the layout changes: a checkpoint under any other
// magic — PGCK1 through PGCK13, whose layouts DESIGN.md §7 traces — is
// refused rather than misparsed.
const checkpointMagic = "PGCK14"

// Codec bounds for untrusted counts; no count preallocates more than
// maxPrealloc entries.
const (
	maxSections = 1 << 16
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

// fingerprint renders, after the layout tag v5, every Config field whose
// `checkpoint` tag says it can change discovery output — quarantine-only
// fields under DriftQuarantine only — as name=value in declaration order.
// A checkpoint cannot be resumed under another fingerprint: the replayed
// batches would be processed differently and the byte-identity guarantee
// would silently break. Callers fingerprint a configuration after
// withDefaults, so a zero field and its default render alike. A nil
// pointer renders as auto. A field without a known class renders as
// fingerprinted; it fails TestConfigFieldsClassified, as does a func field
// that is not execution-only.
func (c Config) fingerprint() string {
	var b strings.Builder
	b.WriteString("v5")
	v := reflect.ValueOf(c)
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		switch classOf(f) {
		case executionOnly, sectionCount:
			continue
		case quarantineOnly:
			if c.DriftPolicy != DriftQuarantine {
				continue
			}
		}
		if fv.Kind() == reflect.Pointer && fv.IsNil() {
			fmt.Fprintf(&b, " %s=auto", f.Name)
		} else {
			fmt.Fprintf(&b, " %s=%+v", f.Name, reflect.Indirect(fv))
		}
	}
	return b.String()
}

// section encodes the pipeline's checkpoint section at stream position
// slots.
func (p *Pipeline) section(slots int) ([]byte, error) {
	var buf bytes.Buffer
	w := pg.NewWireWriter(&buf)
	w.Uvarint(uint64(slots))
	w.Uvarint(uint64(len(p.reports)))
	for _, r := range p.reports {
		writeReport(w, r)
	}
	if err := schema.WriteSchema(w, p.schema); err != nil {
		return nil, err
	}
	p.sampler.writeState(w)
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// readSection restores a section into p, a fresh pipeline, and returns the
// section's stream position.
func (p *Pipeline) readSection(r *pg.WireReader) (int, error) {
	slots, err := r.Uvarint(1 << 40)
	if err != nil {
		return 0, fmt.Errorf("slots: %w", err)
	}
	n, err := r.Uvarint(maxReports)
	if err != nil {
		return 0, fmt.Errorf("report count: %w", err)
	}
	p.reports = make([]BatchReport, 0, min(n, maxPrealloc))
	for i := uint64(0); i < n; i++ {
		rep, err := readReport(r)
		if err != nil {
			return 0, fmt.Errorf("report %d: %w", i, err)
		}
		p.reports = append(p.reports, rep)
	}
	if p.schema, err = schema.ReadSchema(r); err != nil {
		return 0, fmt.Errorf("schema: %w", err)
	}
	// The evidence policy is configuration, not state: re-derive it so the
	// decoded accumulators (whose sketch parameters are self-describing)
	// keep observing under the same caps the writer used.
	p.schema.SetEvidencePolicy(p.cfg.evidencePolicy())
	if err := p.sampler.readState(r); err != nil {
		return 0, fmt.Errorf("sampler: %w", err)
	}
	return int(slots), nil
}

// writeCheckpoint encodes one checkpoint — the header (fingerprint fp,
// stream position slots, fault quarantines skipped and encoded clock), then
// every section, length-prefixed — and hands it to ck.
func writeCheckpoint(ck Checkpointer, fp string, slots int, skipped []SkipReport, clock []byte, sections [][]byte) error {
	size := len(checkpointMagic) + len(fp) + len(clock) + 64
	for _, sec := range sections {
		size += len(sec) + binary.MaxVarintLen64
	}
	var buf bytes.Buffer
	buf.Grow(size)
	w := pg.NewWireWriter(&buf)
	w.Raw([]byte(checkpointMagic))
	w.String(fp)
	w.Uvarint(uint64(len(sections)))
	w.Uvarint(uint64(slots))
	writeSkips(w, skipped)
	w.Uvarint(uint64(len(clock)))
	w.Raw(clock)
	for _, sec := range sections {
		w.Uvarint(uint64(len(sec)))
		w.Raw(sec)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return ck.Save(buf.Bytes())
}

// restore decodes a checkpoint written by Run under cfg: it checks the
// magic, the fingerprint and that there is one section per pipeline of
// pipes — fresh pipelines, max(cfg.Shards, 1) of them — restores each
// section into its pipeline and the header's epoch clock into clock (nil
// only validates it). It returns the run's stream position and fault
// quarantines, and each section's own stream position.
func restore(state []byte, cfg Config, pipes []*Pipeline, clock *epochClock) (resumeState, []int, error) {
	var from resumeState
	r := pg.NewWireReader(bytes.NewReader(state))
	if err := r.Expect(checkpointMagic); err != nil {
		return from, nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	fp, err := r.String()
	if err != nil {
		return from, nil, fmt.Errorf("core: checkpoint fingerprint: %w", err)
	}
	if want := cfg.fingerprint(); fp != want {
		return from, nil, fmt.Errorf("core: checkpoint was written under a different configuration:\n  checkpoint: %s\n  current:    %s", fp, want)
	}
	n, err := r.Uvarint(maxSections)
	if err != nil {
		return from, nil, fmt.Errorf("core: checkpoint section count: %w", err)
	}
	if int(n) != len(pipes) {
		return from, nil, fmt.Errorf("core: checkpoint was written with pipeline count %d, resuming with %d (Shards = %d)", n, len(pipes), cfg.Shards)
	}
	slots, err := r.Uvarint(1 << 40)
	if err != nil {
		return from, nil, fmt.Errorf("core: checkpoint slots: %w", err)
	}
	from.slots = int(slots)
	if from.skipped, err = readSkips(r); err != nil {
		return from, nil, fmt.Errorf("core: checkpoint skip list: %w", err)
	}
	js, err := r.String()
	if err != nil {
		return from, nil, fmt.Errorf("core: checkpoint epoch clock: %w", err)
	}
	if err := decodeClock([]byte(js), clock); err != nil {
		return from, nil, err
	}
	sectionSlots := make([]int, n)
	for i, p := range pipes {
		sec, err := r.String()
		if err == nil {
			sectionSlots[i], err = p.readSection(pg.NewWireReader(strings.NewReader(sec)))
		}
		if err != nil {
			return from, nil, fmt.Errorf("core: checkpoint section %d: %w", i, err)
		}
	}
	return from, sectionSlots, nil
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
