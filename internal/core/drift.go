// Streaming drift observability: the discovery pipeline doubles as a
// conformance guardrail. With a DriftPolicy set, the run's epoch clock
// (epoch.go) validates every batch against the schema of the current
// *epoch* before its candidates are merged, and classified violations flow
// out as obs drift counters, per-window histograms and JSONL records. At
// every EpochInterval batches the clock snapshots the finalized schema,
// diffs it against the previous epoch (schema.Diff) and emits the
// structured diff, so "what changed since epoch k" is a query over the
// drift log rather than a forensic exercise.
//
// The policy decides what a violating batch does to the schema:
//
//   - DriftEvolve merges it exactly as an unvalidated run would — the
//     discovered schema is byte-identical to a validator-free run (pinned
//     by TestConfigMatrix, which reruns every unquarantined row under
//     evolve), because validation reads the batch and the epoch Def but
//     never touches schema, sampler or session.
//   - DriftAlert merges too, but records the classified violations to the
//     drift log.
//   - DriftQuarantine withholds the batch from the merge and routes it
//     into Result.Skipped alongside the fault-tolerant path's poisoned
//     batches, so the pre-drift schema holds.
//
// The clock's state (window, epoch, baseline Def, tallies, quarantines) is
// carried in checkpoints: under quarantine it decides which future batches
// merge, so it is part of the configuration fingerprint; under evolve/alert
// it is execution-only, like telemetry.
package core

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"pghive/internal/obs"
	"pghive/internal/schema"
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

// DefaultEpochInterval is the epoch window length used when
// Config.EpochInterval is 0. It counts every batch through the epoch
// clock's gate, quarantined ones included, not only extracted batches.
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
// batches and epoch diffs), written by the run's epoch clock. It is
// execution-only, and write errors are swallowed after the first (an
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
	// sequence number of the batch that closed the window (quarantined
	// batches take a number too). In a sharded run both count source
	// batches, so without quarantines a fleet epoch after k source batches
	// has Batches k and Seq k−1, as the unsharded run's does.
	Epoch   int
	Batches int
	Seq     int
	// Final marks the run's last snapshot. Every successful run with an
	// epoch clock ends with exactly one, whose Def is Result.Def: a new
	// epoch closing the partial last window (Seq is then Batches−1), or —
	// when the stream ended on a window boundary — the last epoch sent
	// again with only Final and Def fresh.
	Final bool
	// Def is the finalized schema; it aliases nothing mutable and may be
	// retained indefinitely.
	Def *schema.Def
	// Changes is the schema.Diff against the previous epoch (nil for the
	// baseline epoch).
	Changes []schema.Change
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
