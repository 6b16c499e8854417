// The epoch clock: a run has at most one, owned by whatever holds the run's
// schema — the single pipeline at its serialized extract point, or under
// Config.Shards the router, which gates each whole source batch before
// partitioning it and takes each epoch at a consistent cut of the fleet
// (shards.go). Shard pipelines hold none.
//
// The clock is the gate in front of the merge — validate the batch against
// the current epoch, count, log, quarantine — and the window that times
// epochs. Handed the finalized Def when its window is full, it takes an
// epoch: one schema.Diff against the previous, the drift-log record, the
// checker's new target, the epoch span and Config.OnEpoch. close ends the
// run with exactly one Final OnEpoch call, and the clock's whole state rides
// in every checkpoint (encodeClock/decodeClock), so a resumed run counts,
// numbers and publishes exactly as an uninterrupted one.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"pghive/internal/obs"
	"pghive/internal/pg"
	"pghive/internal/schema"
	"pghive/internal/serialize"
	"pghive/internal/validate"
)

// epochClock is a run's one epoch clock (see the file comment).
type epochClock struct {
	policy   DriftPolicy
	interval int
	// checker is nil under DriftOff (an OnEpoch hook alone): epochs run,
	// validation does not.
	checker *validate.StreamChecker
	log     *DriftLog
	onEpoch func(EpochSnapshot)
	instr   obs.Instr

	// epoch counts epochs taken; window counts batches through the gate
	// since the last one; last is the last epoch taken, whose Def is the
	// checker's target and the next diff's base.
	epoch  int
	window int
	last   EpochSnapshot

	// The tallies behind Result.Drift, and the drift quarantines in slot
	// order.
	byClass      [validate.NumDriftClasses]uint64
	driftBatches int
	quarantined  int
	epochChanges int
	skipped      []SkipReport
}

// newEpochClock builds the clock cfg asks for: nil when the drift policy is
// off and no OnEpoch hook wants epochs, so that path costs nothing.
func newEpochClock(cfg Config, instr obs.Instr) *epochClock {
	if cfg.DriftPolicy == DriftOff && cfg.OnEpoch == nil {
		return nil
	}
	c := &epochClock{policy: cfg.DriftPolicy, interval: cfg.EpochInterval, onEpoch: cfg.OnEpoch, instr: instr}
	if cfg.DriftPolicy != DriftOff {
		c.checker = validate.NewStreamChecker(driftMaxDetails)
		c.log = cfg.DriftLog
	}
	return c
}

// gate checks one batch against the current epoch, enforces the policy and
// advances the window; it reports whether the batch may merge. seq is the
// batch's sequence number, slot its stream slot (named by a quarantine's
// skip report) and track the trace track of its validate span. Before the
// first epoch there is nothing to validate against, so warm-up batches
// pass.
func (c *epochClock) gate(b *pg.Batch, seq, slot, track int) bool {
	c.window++
	if c.checker == nil || !c.checker.Ready() {
		return true
	}
	start := time.Now()
	v := c.checker.CheckBatch(b)
	c.instr.Span(obs.Span{
		Stage: obs.StageValidate, Batch: seq, Slot: track,
		Start: start, Duration: time.Since(start),
		Elements: int(v.Total()),
	})
	if v.Clean() {
		return true
	}
	c.driftBatches++
	for cl, n := range v.Counts {
		if n > 0 {
			c.byClass[cl] += n
			c.instr.Add(driftCounterOf[cl], n)
		}
	}
	c.instr.Add(obs.CtrDriftBatches, 1)
	c.instr.Observe(obs.HistDriftBatchViolations, v.Total())
	if c.policy != DriftEvolve {
		c.log.emit(driftViolationRecord{
			Kind: "violations", Batch: seq, Slot: slot,
			Policy: c.policy.String(),
			Total:  v.Total(), Counts: classCounts(&v), Details: v.Details,
		})
	}
	if c.policy == DriftQuarantine {
		c.quarantined++
		c.instr.Add(obs.CtrDriftQuarantined, 1)
		c.skipped = append(c.skipped, SkipReport{Seq: slot, Reason: driftReason(&v)})
		return false
	}
	return true
}

// due reports whether the window is full, so the owner should take an
// epoch (false for a nil clock).
func (c *epochClock) due() bool { return c != nil && c.window >= c.interval }

// take takes an epoch at def, the finalized schema after batches extracted
// batches; seq is the sequence number of the batch that closed the window
// and start when the owner began finalizing. The first epoch is the
// baseline: it diffs against nothing, so validation only begins after one
// full warm-up window, keeping stable streams at zero across all windows.
func (c *epochClock) take(def *schema.Def, batches, seq int, final bool, start time.Time) {
	var changes []schema.Change
	baseline := c.last.Def == nil
	if !baseline {
		changes = schema.Diff(c.last.Def, def)
	}
	c.epoch++
	c.window = 0
	c.last = EpochSnapshot{Epoch: c.epoch, Batches: batches, Seq: seq, Final: final, Def: def, Changes: changes}
	if c.checker != nil {
		c.checker.SetEpoch(def)
	}
	c.instr.Add(obs.CtrEpochs, 1)
	if !baseline {
		c.epochChanges += len(changes)
		c.instr.Add(obs.CtrEpochChanges, uint64(len(changes)))
		c.instr.Observe(obs.HistEpochDiffChanges, uint64(len(changes)))
		c.log.emit(driftEpochRecord{
			Kind: "epoch", Epoch: c.epoch, Batch: seq,
			Final: final, Changes: len(changes), Diff: schema.NewDiffReport(changes),
		})
	}
	c.instr.Span(obs.Span{
		Stage: obs.StageEpoch, Batch: seq,
		Start: start, Duration: time.Since(start),
		Elements: len(changes),
	})
	if c.onEpoch != nil {
		c.onEpoch(c.last)
	}
}

// close ends a successful run at def — Result.Def, after batches extracted
// batches — with exactly one Final OnEpoch call: a new epoch if batches
// passed the gate since the last one or none was taken yet, otherwise the
// last epoch again with Final set, counted once.
func (c *epochClock) close(def *schema.Def, batches int) {
	if c == nil {
		return
	}
	if c.window > 0 || c.epoch == 0 {
		c.take(def, batches, batches-1, true, time.Now())
		return
	}
	if c.onEpoch != nil {
		snap := c.last
		snap.Final, snap.Def = true, def
		c.onEpoch(snap)
	}
}

// quarantinedAt reports whether the clock quarantined the batch at slot.
func (c *epochClock) quarantinedAt(slot int) bool {
	if c == nil {
		return false
	}
	i := sort.Search(len(c.skipped), func(i int) bool { return c.skipped[i].Seq >= slot })
	return i < len(c.skipped) && c.skipped[i].Seq == slot
}

// skips returns the drift quarantines merged into the fault skips, ordered
// by stream slot.
func (c *epochClock) skips(faults []SkipReport) []SkipReport {
	if c == nil || len(c.skipped) == 0 {
		return faults
	}
	out := make([]SkipReport, 0, len(faults)+len(c.skipped))
	out = append(out, faults...)
	out = append(out, c.skipped...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// summary renders the drift tallies (nil when drift is off, including an
// OnEpoch hook alone — epochs by themselves are not drift activity).
func (c *epochClock) summary() *DriftSummary {
	if c == nil || c.policy == DriftOff {
		return nil
	}
	return &DriftSummary{
		Policy:       c.policy,
		Epochs:       c.epoch,
		EpochChanges: c.epochChanges,
		ByClass:      c.byClass,
		DriftBatches: c.driftBatches,
		Quarantined:  c.quarantined,
	}
}

// clockState is a clock's checkpoint section, encoded as JSON: the epoch
// number, the window, the drift tallies and quarantines, and the last
// epoch.
type clockState struct {
	Epoch, Window                           int
	DriftBatches, Quarantined, EpochChanges int
	ByClass                                 [validate.NumDriftClasses]uint64
	Skipped                                 []SkipReport `json:",omitempty"`
	Last                                    *lastEpoch   `json:",omitempty"`
}

// lastEpoch is the last epoch's frontier, Def (as schema JSON) and changes.
type lastEpoch struct {
	Batches, Seq int
	Def          json.RawMessage
	Changes      []schema.Change
}

// encodeClock renders a clock's checkpoint section. A run without a clock
// gets the empty section, so the layout is policy-independent and a
// checkpoint taken under one execution-only policy resumes under another.
func encodeClock(c *epochClock) ([]byte, error) {
	var st clockState
	if c != nil {
		st = clockState{
			Epoch: c.epoch, Window: c.window,
			DriftBatches: c.driftBatches, Quarantined: c.quarantined, EpochChanges: c.epochChanges,
			ByClass: c.byClass, Skipped: c.skipped,
		}
		if c.last.Def != nil {
			var def bytes.Buffer
			if err := serialize.WriteJSON(&def, c.last.Def); err != nil {
				return nil, fmt.Errorf("core: encode epoch def: %w", err)
			}
			st.Last = &lastEpoch{Batches: c.last.Batches, Seq: c.last.Seq, Def: def.Bytes(), Changes: c.last.Changes}
		}
	}
	js, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("core: encode epoch clock: %w", err)
	}
	return js, nil
}

// decodeClock restores a clock section into c; a nil c only validates it.
func decodeClock(js []byte, c *epochClock) error {
	var st clockState
	if err := json.Unmarshal(js, &st); err != nil {
		return fmt.Errorf("core: decode epoch clock: %w", err)
	}
	var last EpochSnapshot
	if l := st.Last; l != nil {
		def, err := serialize.ReadJSON(bytes.NewReader(l.Def))
		if err != nil {
			return fmt.Errorf("core: decode epoch def: %w", err)
		}
		last = EpochSnapshot{Epoch: st.Epoch, Batches: l.Batches, Seq: l.Seq, Def: def, Changes: l.Changes}
	}
	if c == nil {
		return nil
	}
	c.epoch, c.window, c.last = st.Epoch, st.Window, last
	c.driftBatches, c.quarantined, c.epochChanges = st.DriftBatches, st.Quarantined, st.EpochChanges
	c.byClass, c.skipped = st.ByClass, st.Skipped
	if last.Def != nil && c.checker != nil {
		c.checker.SetEpoch(last.Def)
	}
	return nil
}
