// The staged execution engine: one loop runs Algorithm 1's incremental
// discovery loop for every Run — fresh and resumed, with and without
// checkpoints, the single pipeline and each shard of a sharded run.
//
//	load ──▶ preprocess ──▶ cluster ──▶ extract (+ checkpoint)
//	(puller     (serial,      (depth−1     (serial,
//	 goroutine)  in order)     workers)     in order)
//
// Load runs the fault-absorbing puller (faults.go) ahead of the rest and
// stamps each good batch with its stream position. Preprocess (align +
// vectorize) is serialized in batch order because the label aligner and
// the cross-batch embedding cache are order-dependent; on resume it also
// replays the resume window — the batches the checkpoint already folded in
// are preprocessed again and go no further. Clustering — the
// dominant cost — is pure, so depth−1 workers cluster several batches at
// once. Extraction merges candidates into the shared schema and sampler; it
// stays serialized in batch order, which preserves S_i ⊑ S_{i+1} and makes
// the finalized schema byte-identical at every depth, and each batch's
// checkpoint is written right after it. At PipelineDepth 1 the same stage
// functions run inline on the caller's goroutine, with no goroutine and no
// channel. A failed checkpoint save stops the run at every depth: nothing
// more is pulled and every stage goroutine has exited when the error is
// returned.
package core

import (
	"fmt"
	"sync"
	"time"

	"pghive/internal/obs"
	"pghive/internal/pg"
)

// pulled is one good batch as the load stage hands it on: its stream
// position, whether it lies in the resume window (replay), the quarantine
// list as of its pull (only when checkpointing a fresh batch), and when the
// wait for it began and how long it took.
type pulled struct {
	b       *pg.Batch
	pos     int
	replay  bool
	skipped []SkipReport
	t0      time.Time
	load    time.Duration
}

// saver receives a pipeline's encoded checkpoint section, which it takes
// over, after the batch at stream position pos, with the fault quarantines
// as of that batch's pull: the single pipeline's writes the whole
// checkpoint (drainFT), a shard's hands the section to the fleet's
// coordinator (shards.go).
type saver func(section []byte, pos int, skipped []SkipReport) error

// drain is the engine's one loop: it pulls good batches through pl, replays
// those of the resume window, runs the rest through the four stages and,
// with save set, checkpoints after every extraction. progress, when set,
// hears the position of every folded batch, and the error that stops the
// loop as soon as it happens — before the stages wind down, which waits for
// the pull in progress. drain returns the first permanent source error or
// failed save.
func (p *Pipeline) drain(pl *puller, save saver, progress func(pos int, err error)) error {
	base := p.nextSeq()
	if p.cfg.PipelineDepth <= 1 {
		for seq := base; ; {
			in, err := pl.pull(save != nil)
			if err != nil || in.b == nil {
				return err
			}
			if in.replay {
				p.replay(in.b)
				continue
			}
			if err := p.fold(p.cluster(p.prep(in, seq)), save, progress); err != nil {
				return err
			}
			seq++
		}
	}

	// Each stage may run up to depth batches ahead of the next: that is
	// what PipelineDepth bounds, so every channel buffers depth batches.
	depth := p.cfg.PipelineDepth
	stop := make(chan struct{})
	var once sync.Once
	halt := func(err error) {
		once.Do(func() {
			close(stop)
			if progress != nil {
				progress(0, err)
			}
		})
	}
	halted := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	// Load: checks for a halt before every pull.
	loaded := make(chan pulled, depth)
	var srcErr error
	go func() {
		defer close(loaded)
		for !halted() {
			in, err := pl.pull(save != nil)
			if err != nil || in.b == nil {
				srcErr = err
				return
			}
			select {
			case loaded <- in:
			case <-stop:
				return
			}
		}
	}()

	// Preprocess: in batch order, replaying the resume window; Load is the
	// wait for the next batch. After a halt it only drains the load stage.
	prepped := make(chan staged, depth)
	go func() {
		defer close(prepped)
		seq := base
		for {
			t0 := time.Now()
			in, ok := <-loaded
			switch {
			case !ok:
				return
			case halted():
			case in.replay:
				p.replay(in.b)
			default:
				in.t0, in.load = t0, time.Since(t0)
				prepped <- p.prep(in, seq)
				seq++
			}
		}
	}()

	// Cluster: a worker pool; batches may finish out of order.
	clustered := make(chan computed, depth)
	var wg sync.WaitGroup
	for w := 0; w < depth-1; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for st := range prepped {
				clustered <- p.cluster(st)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(clustered)
	}()

	// Extract: reorder by sequence number and fold in batch order. After a
	// halt it only drains the cluster stage, so every goroutine has exited
	// when the loop ends.
	var saveErr error
	pending := map[int]computed{}
	next := base
	for c := range clustered {
		if halted() {
			continue
		}
		pending[c.seq] = c
		for {
			cur, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if saveErr = p.fold(cur, save, progress); saveErr != nil {
				halt(saveErr)
				break
			}
		}
	}
	if srcErr != nil {
		return srcErr
	}
	return saveErr
}

// prep is the preprocess stage for one pulled batch: its load span and
// align + vectorize.
func (p *Pipeline) prep(in pulled, seq int) staged {
	p.loadSpan(seq, in.b, in.t0, in.load)
	st := p.preprocess(in.b, seq)
	st.report.Load = in.load
	st.pos, st.skipped = in.pos, in.skipped
	return st
}

// cluster is the cluster stage for one staged batch. Node and edge
// clustering run concurrently when the batch has both and Parallelism
// allows: they are independent (separate hash families, disjoint outputs,
// a read-only Vectorizer snapshot between them).
func (p *Pipeline) cluster(st staged) computed {
	c := computed{staged: st}
	start := time.Now()
	ns, es := nodeSpec(st.b, st.vz), edgeSpec(st.b, st.vz)
	if p.cfg.Parallelism > 1 && ns.n > 0 && es.n > 0 {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.edgeClusters, c.report.EdgeParams = p.clusterKind(es)
		}()
		c.nodeClusters, c.report.NodeParams = p.clusterKind(ns)
		wg.Wait()
	} else {
		c.nodeClusters, c.report.NodeParams = p.clusterKind(ns)
		c.edgeClusters, c.report.EdgeParams = p.clusterKind(es)
	}
	c.vz = nil // extraction reads the batch and its shapes, not its vectors
	c.report.Cluster = time.Since(start)
	c.report.NodeClusters = len(c.nodeClusters)
	c.report.EdgeClusters = len(c.edgeClusters)
	p.instr.Span(obs.Span{
		Stage: obs.StageCluster, Batch: c.seq, Slot: p.slot(c.seq),
		Start: start, Duration: c.report.Cluster,
		Elements: c.report.Nodes + c.report.Edges,
	})
	return c
}

// fold is the extract stage for one clustered batch: the clock's gate and
// the Algorithm 2 merge, then — when checkpointing — the batch's checkpoint.
func (p *Pipeline) fold(c computed, save saver, progress func(pos int, err error)) error {
	p.extractChecked(c, c.pos-1)
	if save != nil {
		if err := p.save(save, c); err != nil {
			return err
		}
	}
	if progress != nil {
		progress(c.pos, nil)
	}
	return nil
}

// save encodes the pipeline's section after batch c and hands it to put
// with the batch's position and pull-time fault skips.
func (p *Pipeline) save(put saver, c computed) error {
	start := time.Now()
	section, err := p.section(c.pos)
	if err != nil {
		return fmt.Errorf("core: encode checkpoint: %w", err)
	}
	if err := put(section, c.pos, c.skipped); err != nil {
		return fmt.Errorf("core: save checkpoint: %w", err)
	}
	p.instr.Span(obs.Span{
		Stage: obs.StageCheckpoint, Batch: c.seq, Slot: p.slot(c.seq),
		Start: start, Duration: time.Since(start),
		Elements: len(section),
	})
	return nil
}
