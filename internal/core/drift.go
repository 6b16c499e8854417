// Streaming drift observability: the discovery pipeline doubles as a
// conformance guardrail. With a DriftPolicy set, every batch is validated
// against the schema of the current *epoch* at the serialized extract point
// — before its candidates are merged — and classified violations flow out
// as obs drift counters, per-window histograms and JSONL records. At every
// EpochInterval extracted windows the engine snapshots the finalized
// schema, diffs it against the previous epoch (schema.Diff) and emits the
// structured diff, so "what changed since epoch k" is a query over the
// drift log rather than a forensic exercise.
//
// The policy decides what a violating batch does to the schema:
//
//   - DriftEvolve merges it exactly as an unvalidated run would — the
//     discovered schema is byte-identical to a validator-free run (pinned
//     by TestDriftEvolveByteIdentical), because validation reads the batch
//     and the epoch Def but never touches schema, sampler or session.
//   - DriftAlert merges too, but records the classified violations to the
//     drift log.
//   - DriftQuarantine withholds the batch from the merge and routes it
//     into Result.Skipped alongside the fault-tolerant path's poisoned
//     batches, so the pre-drift schema holds.
//
// Epoch state (counter, window position, baseline Def) is carried in
// checkpoints: under quarantine it decides which future batches merge, so
// it is part of the configuration fingerprint; under evolve/alert it is
// execution-only, like telemetry.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"pghive/internal/obs"
	"pghive/internal/pg"
	"pghive/internal/schema"
	"pghive/internal/serialize"
	"pghive/internal/validate"
)

// DriftPolicy selects what happens when a batch violates the current epoch
// schema.
type DriftPolicy uint8

// Drift policies.
const (
	// DriftOff disables streaming validation entirely (the default): no
	// checker runs, no epochs are taken, zero overhead.
	DriftOff DriftPolicy = iota
	// DriftEvolve validates and counts, then merges as today.
	DriftEvolve
	// DriftAlert validates, counts, records violation details to the drift
	// log, then merges.
	DriftAlert
	// DriftQuarantine withholds violating batches from the merge, recording
	// them in Result.Skipped.
	DriftQuarantine
)

// String names the policy the way the -drift-policy flag spells it.
func (p DriftPolicy) String() string {
	switch p {
	case DriftOff:
		return "off"
	case DriftEvolve:
		return "evolve"
	case DriftAlert:
		return "alert"
	case DriftQuarantine:
		return "quarantine"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// ParseDriftPolicy parses a -drift-policy flag value ("" means off).
func ParseDriftPolicy(s string) (DriftPolicy, error) {
	switch s {
	case "", "off":
		return DriftOff, nil
	case "evolve":
		return DriftEvolve, nil
	case "alert":
		return DriftAlert, nil
	case "quarantine":
		return DriftQuarantine, nil
	default:
		return DriftOff, fmt.Errorf("core: unknown drift policy %q (want off, evolve, alert or quarantine)", s)
	}
}

// DefaultEpochInterval is the epoch window length (in extracted batches)
// used when Config.EpochInterval is 0.
const DefaultEpochInterval = 8

// driftMaxDetails caps the violation details retained per batch for the
// drift log; per-class counts are always exact.
const driftMaxDetails = 8

// driftCounterOf maps a validate.DriftClass onto its obs counter.
var driftCounterOf = [validate.NumDriftClasses]obs.Counter{
	validate.DriftNewType:          obs.CtrDriftNewType,
	validate.DriftNewLabelSet:      obs.CtrDriftNewLabelSet,
	validate.DriftWidenedType:      obs.CtrDriftWidenedType,
	validate.DriftMissingMandatory: obs.CtrDriftMissingMandatory,
	validate.DriftCardinalityBreak: obs.CtrDriftCardinalityBreak,
	validate.DriftTypeDowngrade:    obs.CtrDriftTypeDowngrade,
}

// DriftLog is a concurrency-safe JSONL sink for drift records (violation
// batches and epoch diffs). It is execution-only — shared by every shard of
// a sharded run — and write errors are swallowed after the first (an
// observability sink must never fail the pipeline).
type DriftLog struct {
	mu   sync.Mutex
	w    io.Writer
	dead bool
}

// NewDriftLog wraps a writer (nil returns a nil log, which is disabled).
func NewDriftLog(w io.Writer) *DriftLog {
	if w == nil {
		return nil
	}
	return &DriftLog{w: w}
}

func (l *DriftLog) emit(rec any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dead {
		return
	}
	b, err := json.Marshal(rec)
	if err == nil {
		b = append(b, '\n')
		_, err = l.w.Write(b)
	}
	if err != nil {
		l.dead = true
	}
}

// driftViolationRecord is one JSONL line: a batch that violated the epoch.
type driftViolationRecord struct {
	Kind    string                    `json:"kind"` // "violations"
	Shard   int                       `json:"shard,omitempty"`
	Batch   int                       `json:"batch"`
	Slot    int                       `json:"slot"`
	Policy  string                    `json:"policy"`
	Total   uint64                    `json:"total"`
	Counts  map[string]uint64         `json:"counts"`
	Details []validate.DriftViolation `json:"details,omitempty"`
}

// driftEpochRecord is one JSONL line: an epoch boundary and its diff
// against the previous epoch.
type driftEpochRecord struct {
	Kind    string            `json:"kind"` // "epoch"
	Shard   int               `json:"shard,omitempty"`
	Epoch   int               `json:"epoch"`
	Batch   int               `json:"batch"`
	Final   bool              `json:"final,omitempty"`
	Changes int               `json:"changes"`
	Diff    schema.DiffReport `json:"diff"`
}

// EpochSnapshot is what Config.OnEpoch receives at every epoch boundary:
// an immutable view of the finalized schema at that point in the stream.
type EpochSnapshot struct {
	// Epoch is the 1-based epoch counter; Batches is how many batches had
	// been extracted into the schema when the snapshot was taken; Seq is the
	// stream sequence number of the batch that closed the window. In a
	// sharded run both count source batches: a fleet epoch after k source
	// batches has Batches k and Seq k−1.
	Epoch   int
	Batches int
	Seq     int
	// Final marks the partial window closed at the end of the stream.
	Final bool
	// Def is the finalized schema; it aliases nothing mutable and may be
	// retained indefinitely.
	Def *schema.Def
	// Changes is the schema.Diff against the previous epoch (nil for the
	// baseline epoch).
	Changes []schema.Change
}

// driftState is the per-pipeline drift machinery, allocated when a policy
// is set — or, checker-less, when only an OnEpoch hook wants the epoch
// clock.
type driftState struct {
	// checker is nil in epoch-only mode (DriftOff + OnEpoch): the epoch
	// clock runs, validation does not.
	checker *validate.StreamChecker
	log     *DriftLog
	// epoch counts snapshots taken; sinceEpoch counts extracted (or
	// quarantined) windows since the last one; prevDef is the baseline the
	// checker validates against and the diff compares to.
	epoch      int
	sinceEpoch int
	prevDef    *schema.Def
	// Summary tallies, independent of whether a telemetry sink is attached.
	byClass      [validate.NumDriftClasses]uint64
	driftBatches int
	quarantined  int
	epochChanges int
}

// newDriftState builds the drift machinery for a configured pipeline.
func newDriftState(cfg Config) *driftState {
	if cfg.DriftPolicy == DriftOff {
		if cfg.OnEpoch == nil {
			return nil
		}
		// Epoch-only mode: the publication hook needs the epoch clock but
		// nobody asked for validation, so no checker and no drift log.
		return &driftState{}
	}
	return &driftState{
		checker: validate.NewStreamChecker(driftMaxDetails),
		log:     cfg.DriftLog,
	}
}

// DriftSummary aggregates a run's drift activity, exposed as Result.Drift.
type DriftSummary struct {
	// Policy is the policy the run enforced.
	Policy DriftPolicy
	// Epochs counts schema snapshots taken; EpochChanges sums the diff
	// changes observed across epoch boundaries.
	Epochs       int
	EpochChanges int
	// ByClass holds the total violations per validate.DriftClass.
	ByClass [validate.NumDriftClasses]uint64
	// DriftBatches counts validated batches with at least one violation;
	// Quarantined counts batches the quarantine policy withheld.
	DriftBatches int
	Quarantined  int
}

// Total sums the per-class violation counts.
func (s *DriftSummary) Total() uint64 {
	var t uint64
	for _, n := range s.ByClass {
		t += n
	}
	return t
}

// Class returns one class's violation count.
func (s *DriftSummary) Class(c validate.DriftClass) uint64 { return s.ByClass[c] }

// merge folds another shard's summary into this one.
func (s *DriftSummary) merge(o *DriftSummary) {
	s.Epochs += o.Epochs
	s.EpochChanges += o.EpochChanges
	for i := range s.ByClass {
		s.ByClass[i] += o.ByClass[i]
	}
	s.DriftBatches += o.DriftBatches
	s.Quarantined += o.Quarantined
}

// driftSummary renders the pipeline's drift tallies (nil when drift is off,
// including epoch-only mode — an OnEpoch hook alone is not drift activity).
func (p *Pipeline) driftSummary() *DriftSummary {
	d := p.drift
	if d == nil || p.cfg.DriftPolicy == DriftOff {
		return nil
	}
	return &DriftSummary{
		Policy:       p.cfg.DriftPolicy,
		Epochs:       d.epoch,
		EpochChanges: d.epochChanges,
		ByClass:      d.byClass,
		DriftBatches: d.driftBatches,
		Quarantined:  d.quarantined,
	}
}

// extractChecked is the policy gate in front of extract. It runs at the
// serialized extract point (strictly in batch order), validates the batch
// against the current epoch, enforces the policy, and advances the epoch
// clock. slot is the batch's source stream position for quarantine skip
// reports. A quarantined batch returns a zero report and is not appended to
// p.reports, matching the fault path's skip semantics.
func (p *Pipeline) extractChecked(c computed, slot int) BatchReport {
	if p.drift == nil {
		return p.extract(c)
	}
	var rep BatchReport
	if p.driftAdmit(c.b, c.seq, slot) {
		rep = p.extract(c)
	}
	p.drift.sinceEpoch++
	if p.drift.sinceEpoch >= p.cfg.EpochInterval {
		p.driftEpoch(c.seq, false)
	}
	return rep
}

// driftAdmit validates one batch and reports whether it may merge. Before
// the first epoch there is nothing to validate against, so warm-up batches
// admit trivially.
func (p *Pipeline) driftAdmit(b *pg.Batch, seq, slot int) bool {
	d := p.drift
	if d.checker == nil || !d.checker.Ready() {
		return true
	}
	start := time.Now()
	v := d.checker.CheckBatch(b)
	p.instr.Span(obs.Span{
		Stage: obs.StageValidate, Batch: seq, Slot: p.slot(seq),
		Start: start, Duration: time.Since(start),
		Elements: int(v.Total()),
	})
	if v.Clean() {
		return true
	}
	d.driftBatches++
	for cl, n := range v.Counts {
		if n > 0 {
			d.byClass[cl] += n
			p.instr.Add(driftCounterOf[cl], n)
		}
	}
	p.instr.Add(obs.CtrDriftBatches, 1)
	p.instr.Observe(obs.HistDriftBatchViolations, v.Total())
	if p.cfg.DriftPolicy != DriftEvolve {
		d.log.emit(driftViolationRecord{
			Kind: "violations", Shard: p.cfg.driftShard, Batch: seq, Slot: slot,
			Policy: p.cfg.DriftPolicy.String(),
			Total:  v.Total(), Counts: classCounts(&v), Details: v.Details,
		})
	}
	if p.cfg.DriftPolicy == DriftQuarantine {
		d.quarantined++
		p.instr.Add(obs.CtrDriftQuarantined, 1)
		p.driftSkipped = append(p.driftSkipped, SkipReport{Seq: slot, Reason: driftReason(&v)})
		return false
	}
	return true
}

// classCounts renders a verdict's non-zero per-class counts by name.
func classCounts(v *validate.BatchVerdict) map[string]uint64 {
	out := make(map[string]uint64)
	for cl, n := range v.Counts {
		if n > 0 {
			out[validate.DriftClass(cl).String()] = n
		}
	}
	return out
}

// driftReason builds the deterministic skip reason for a quarantined batch.
func driftReason(v *validate.BatchVerdict) string {
	r := fmt.Sprintf("drift: quarantined, %d violations (", v.Total())
	first := true
	for cl, n := range v.Counts {
		if n == 0 {
			continue
		}
		if !first {
			r += " "
		}
		first = false
		r += fmt.Sprintf("%s=%d", validate.DriftClass(cl), n)
	}
	return r + ")"
}

// driftEpoch takes an epoch snapshot: finalize the current schema, diff it
// against the previous epoch, publish the diff, and install the snapshot as
// the checker's new validation target. The first epoch is the baseline —
// it emits no diff (there is nothing to compare against), which also means
// validation only begins after one full warm-up window, keeping stable
// streams at zero across all windows.
func (p *Pipeline) driftEpoch(seq int, final bool) {
	d := p.drift
	start := time.Now()
	def := p.cfg.finalize(p.schema)
	var changes []schema.Change
	baseline := d.prevDef == nil
	if !baseline {
		changes = schema.Diff(d.prevDef, def)
	}
	d.epoch++
	d.sinceEpoch = 0
	d.prevDef = def
	if d.checker != nil {
		d.checker.SetEpoch(def)
	}
	p.instr.Add(obs.CtrEpochs, 1)
	if !baseline {
		d.epochChanges += len(changes)
		p.instr.Add(obs.CtrEpochChanges, uint64(len(changes)))
		p.instr.Observe(obs.HistEpochDiffChanges, uint64(len(changes)))
		d.log.emit(driftEpochRecord{
			Kind: "epoch", Shard: p.cfg.driftShard, Epoch: d.epoch, Batch: seq,
			Final: final, Changes: len(changes), Diff: schema.NewDiffReport(changes),
		})
	}
	p.instr.Span(obs.Span{
		Stage: obs.StageEpoch, Batch: seq,
		Start: start, Duration: time.Since(start),
		Elements: len(changes),
	})
	if p.cfg.OnEpoch != nil {
		p.cfg.OnEpoch(EpochSnapshot{
			Epoch: d.epoch, Batches: len(p.reports), Seq: seq, Final: final,
			Def: def, Changes: changes,
		})
	}
}

// driftFinalEpoch closes the last partial window at Finalize time: whatever
// changed since the most recent epoch boundary is reported against the
// run's final Def, so the drift log always covers the whole stream.
func (p *Pipeline) driftFinalEpoch() {
	d := p.drift
	if d == nil || d.epoch == 0 || d.sinceEpoch == 0 {
		return
	}
	p.driftEpoch(len(p.reports)-1, true)
}

// mergedSkips combines the fault-quarantine list with the drift-quarantine
// list, ordered by stream slot.
func (p *Pipeline) mergedSkips(faultSkips []SkipReport) []SkipReport {
	if len(p.driftSkipped) == 0 {
		return faultSkips
	}
	out := make([]SkipReport, 0, len(faultSkips)+len(p.driftSkipped))
	out = append(out, faultSkips...)
	out = append(out, p.driftSkipped...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// writeDriftState appends the drift section to a checkpoint: the epoch
// counter, the window position, and the baseline Def (as schema JSON).
// Always written — a pipeline without drift writes the empty section — so
// the layout is policy-independent and a checkpoint taken under one
// execution-only policy resumes under another.
func (p *Pipeline) writeDriftState(w *pg.WireWriter) error {
	d := p.drift
	if d == nil {
		w.Uvarint(0)
		w.Uvarint(0)
		w.Bool(false)
		return nil
	}
	w.Uvarint(uint64(d.epoch))
	w.Uvarint(uint64(d.sinceEpoch))
	if d.prevDef == nil {
		w.Bool(false)
		return nil
	}
	w.Bool(true)
	var buf bytes.Buffer
	if err := serialize.WriteJSON(&buf, d.prevDef); err != nil {
		return fmt.Errorf("core: encode epoch def: %w", err)
	}
	w.String(buf.String())
	return nil
}

// readDriftState decodes the drift section. State is restored only when the
// resuming pipeline has drift enabled; otherwise it is read and discarded.
func (p *Pipeline) readDriftState(r *pg.WireReader) error {
	epoch, err := r.Uvarint(1 << 40)
	if err != nil {
		return fmt.Errorf("core: checkpoint drift epoch: %w", err)
	}
	since, err := r.Uvarint(1 << 40)
	if err != nil {
		return fmt.Errorf("core: checkpoint drift window: %w", err)
	}
	hasDef, err := r.Bool()
	if err != nil {
		return fmt.Errorf("core: checkpoint drift def flag: %w", err)
	}
	var def *schema.Def
	if hasDef {
		js, err := r.String()
		if err != nil {
			return fmt.Errorf("core: checkpoint drift def: %w", err)
		}
		if def, err = serialize.ReadJSON(bytes.NewReader([]byte(js))); err != nil {
			return fmt.Errorf("core: decode epoch def: %w", err)
		}
	}
	if d := p.drift; d != nil {
		d.epoch = int(epoch)
		d.sinceEpoch = int(since)
		d.prevDef = def
		if def != nil && d.checker != nil {
			d.checker.SetEpoch(def)
		}
	}
	return nil
}
