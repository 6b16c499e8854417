// Fault-tolerant ingestion: one puller, shared by the single pipeline's load
// stage and the shard router, lets discovery degrade gracefully instead of
// aborting:
//
//   - transient faults are retried in place (the slot is re-pulled; a
//     RetrySource upstream additionally adds backoff),
//   - poisoned batches (corruption, truncation) are quarantined into skip
//     reports and the stream advances,
//   - permanent failures stop the run with an error, after which the last
//     checkpoint resumes it; so does a failed checkpoint save, at every
//     pipeline depth and shard count,
//
// and per-batch checkpointing serializes the full pipeline state after every
// extracted batch, so a killed run converges to byte-identical Finalize
// output when resumed (see checkpoint.go for the frontier-consistency
// argument).
package core

import (
	"fmt"
	"os"
	"time"

	"pghive/internal/obs"
	"pghive/internal/pg"
)

// RunOptions configures what a Run persists and what it continues from.
type RunOptions struct {
	// Checkpoint, when non-nil, receives the encoded run state after every
	// extracted batch: a PGCK9 pipeline checkpoint, or a PGCK10 fleet
	// container when Config.Shards > 1.
	Checkpoint Checkpointer
	// Resume, when non-nil, is a checkpoint the run continues from — PGCK9,
	// or a PGCK10 fleet container when Config.Shards > 1, written under the
	// same configuration. The source must replay the same stream from its
	// start: the slots the checkpointed run already folded in are skipped.
	Resume []byte
}

// resumeState is the stream progress a resumed run restores: the leading
// slots the checkpointed run already folded in (or quarantined), and the
// quarantine list it had recorded by then.
type resumeState struct {
	slots   int
	skipped []SkipReport
}

// DefaultMaxTransient bounds consecutive transient faults on one slot: the
// run stops with an error at that many in a row. A fault source whose
// transient bursts are shorter always stays under it.
const DefaultMaxTransient = 100

// Checkpointer persists encoded checkpoints. Save is called from the extract
// stage, strictly in batch order (for a sharded run, once per shard
// extraction, with the whole fleet container). An error from Save stops the
// run: nothing is pulled after it and the error is returned.
type Checkpointer interface {
	Save(state []byte) error
}

// FileCheckpointer atomically writes each checkpoint to one file
// (tmp + rename), so a crash mid-save leaves the previous checkpoint intact.
type FileCheckpointer struct{ Path string }

// Save implements Checkpointer.
func (f FileCheckpointer) Save(state []byte) error {
	tmp := f.Path + ".tmp"
	if err := os.WriteFile(tmp, state, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, f.Path)
}

// Load opens the checkpoint, reporting (nil, false, nil) when none exists
// yet — the caller starts a fresh run.
func (f FileCheckpointer) Load() ([]byte, bool, error) {
	state, err := os.ReadFile(f.Path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return state, true, nil
}

// puller pulls good batches from a fallible source for the single
// pipeline's load stage and the shard router alike. It retries transient
// faults in place (up to DefaultMaxTransient), quarantines poisoned batches
// (recorded only past the resume skip window: the checkpointed run recorded
// the rest) and returns each good batch with its stream position — also
// inside the skip window, which the single pipeline drops (pull) and the
// router re-delivers. It is not safe for concurrent use.
type puller struct {
	src       pg.ErrSource
	instr     obs.Instr
	skipSlots int
	slot      int // stream position: delivered + quarantined batches
	skipped   []SkipReport
}

// newPuller starts a puller at stream position 0 with the resume window and
// quarantine list of from.
func newPuller(src pg.ErrSource, from resumeState, instr obs.Instr) *puller {
	return &puller{
		src: src, instr: instr,
		skipSlots: from.slots,
		skipped:   append([]SkipReport(nil), from.skipped...),
	}
}

// next returns the next good batch and the stream position after it (the
// batch occupies slot pos−1), or a nil batch at end of stream.
func (pl *puller) next() (*pg.Batch, int, error) {
	transients := 0
	for {
		b, err := pl.src.Next()
		switch {
		case err == nil && b == nil:
			return nil, pl.slot, nil
		case err == nil:
			pl.slot++
			return b, pl.slot, nil
		case pg.IsTransient(err):
			transients++
			if transients >= DefaultMaxTransient {
				return nil, pl.slot, fmt.Errorf("core: slot %d: %d consecutive transient faults: %w", pl.slot, transients, err)
			}
			pl.instr.Add(obs.CtrRetries, 1)
		case pg.IsCorrupt(err):
			pl.slot++
			transients = 0
			if pl.slot > pl.skipSlots {
				pl.skipped = append(pl.skipped, SkipReport{Seq: pl.slot - 1, Reason: err.Error()})
				pl.instr.Add(obs.CtrQuarantined, 1)
			}
		default:
			return nil, pl.slot, err
		}
	}
}

// pull is the single pipeline's load step: the next good batch past the
// resume skip window, stamped with its position and — with stamp set — a
// copy of the quarantine list as of its pull. A nil batch is end of stream.
func (pl *puller) pull(stamp bool) (pulled, error) {
	t0 := time.Now()
	for {
		b, pos, err := pl.next()
		if err != nil || b == nil {
			return pulled{}, err
		}
		if pos <= pl.skipSlots {
			continue // already folded in by the checkpointed run
		}
		in := pulled{b: b, pos: pos, t0: t0, load: time.Since(t0)}
		if stamp {
			in.skipped = append([]SkipReport(nil), pl.skipped...)
		}
		return in, nil
	}
}

// metered counts the checkpoints and bytes actually handed to ck — for a
// sharded run, the fleet containers, not the shard sections inside them.
type metered struct {
	ck    Checkpointer
	instr obs.Instr
}

// meter wraps ck (nil stays nil).
func meter(ck Checkpointer, instr obs.Instr) Checkpointer {
	if ck == nil {
		return nil
	}
	return metered{ck: ck, instr: instr}
}

// Save implements Checkpointer.
func (m metered) Save(state []byte) error {
	err := m.ck.Save(state)
	if err == nil {
		m.instr.Add(obs.CtrCheckpoints, 1)
		m.instr.Add(obs.CtrCheckpointBytes, uint64(len(state)))
	}
	return err
}

// drainFT processes every batch from a fallible source past from's resume
// window, quarantining poisoned batches and, with ck set, checkpointing
// after each extraction. It returns the quarantine list — fault and drift
// quarantines, from's included — and the first permanent source error or
// failed save. Every PipelineDepth produces identical schemas and identical
// checkpoint sequences.
func (p *Pipeline) drainFT(src pg.ErrSource, ck Checkpointer, from resumeState) ([]SkipReport, error) {
	pl := newPuller(src, from, p.instr)
	err := p.drain(pl, meter(ck, p.instr), nil)
	return p.clock.skips(pl.skipped), err
}
