// Sharded multi-core discovery: the element stream is hash-partitioned
// across Config.Shards independent pipelines — each with its own schema,
// symbol table, sampler and embedding session — which run concurrently, one
// engine loop (engine.go) per shard. When the stream ends, the partial
// schemas are folded into one global schema by MergeShardSchemas: shard
// symtab IDs are remapped into the global table through dense translation
// tables, degree and property evidence is unioned, and Algorithm 2's
// unlabeled-into-labeled Jaccard merge re-runs across shard boundaries.
// Merging shards in index order keeps the global symtab assignment — and
// therefore the serialized schema — deterministic for a fixed (Seed, Shards).
//
// One router, on the caller's goroutine, drives every sharded Run: it
// pulls the source through the single pipeline's fault-absorbing puller
// (faults.go) and feeds each good batch's non-empty sub-batches to the
// shards. It also owns the run's one epoch clock (epoch.go), so shards run
// no drift and take no epochs: each whole source batch passes the clock's
// gate before it is partitioned (a quarantined batch is not routed), and
// when the window is full the router waits until every shard has folded in
// what it was routed, clones the shard schemas structurally and in
// parallel (schema.Schema.Clone), folds the clones with MergeShardSchemas,
// finalizes and hands the Def to the clock — so fleet epoch k is
// byte-identical to Discover over the stream's first k·EpochInterval
// batches.
//
// With a checkpointer, Run saves the whole fleet into one checkpoint
// (checkpoint.go) with a section per shard: the header holds the router's
// stream position, fault quarantines and clock as of that position.
// Sections advance independently (each shard checkpoints after its own
// extractions), so a checkpoint pairs the newest section of the shard that
// just saved with the latest sections of the rest; on resume
// (RunOptions.Resume) the router replays the stream from the beginning
// without re-validating it, skips the batches its clock quarantined (the
// shards never saw them), and each shard's own skip window marks exactly
// the sub-batches it already folded in, which the shard only preprocesses
// again to rebuild its aligner and embedding session. Because the
// element→shard assignment ignores batch boundaries, the replayed sub-batch
// sequence is identical, and the resumed run converges to byte-identical
// Finalize output (TestConfigMatrix).
package core

import (
	"fmt"
	"sync"
	"time"

	"pghive/internal/obs"
	"pghive/internal/pg"
	"pghive/internal/schema"
)

// chanSource adapts a batch channel to pg.Source: a closed channel is end of
// stream.
type chanSource struct{ ch chan *pg.Batch }

// Next implements pg.Source.
func (c *chanSource) Next() *pg.Batch { return <-c.ch }

// shardConfig derives shard i's pipeline configuration: telemetry events are
// tagged with the shard index, the worker budget is split across shards so
// N concurrent engines don't oversubscribe the host, and drift and the epoch
// hook are dropped — the router's clock gates and publishes for the fleet.
func shardConfig(cfg Config, i int) Config {
	sc := cfg
	sc.Shards = 0
	sc.DriftPolicy = DriftOff
	sc.DriftLog = nil
	sc.OnEpoch = nil
	sc.Telemetry = obs.ShardSink(cfg.Telemetry, i)
	if w := cfg.Parallelism / cfg.Shards; w >= 1 {
		sc.Parallelism = w
	} else {
		sc.Parallelism = 1
	}
	return sc
}

// newPipelines builds a run's fresh pipelines: one per shard, or the single
// pipeline when cfg.Shards ≤ 1.
func newPipelines(cfg Config) []*Pipeline {
	if cfg.Shards <= 1 {
		return []*Pipeline{NewPipeline(cfg)}
	}
	pipes := make([]*Pipeline, cfg.Shards)
	for i := range pipes {
		pipes[i] = NewPipeline(shardConfig(cfg, i))
	}
	return pipes
}

// MergeShardSchemas folds per-shard partial schemas, in shard order, into
// one fresh global schema: shard symtab IDs are remapped into the global
// table, evidence is unioned, and Algorithm 2 re-runs across shard
// boundaries under cfg's θ, with the evidence policy cfg's memory budget
// selects. It is the one fold behind a sharded run's result, its fleet
// epochs and the soak harness's window checks. The shard schemas' types are
// rebound to the global symtab, so pass schemas the caller owns.
func MergeShardSchemas(shards []*schema.Schema, cfg Config) *schema.Schema {
	cfg = cfg.withDefaults()
	global := schema.NewSchema()
	global.SetEvidencePolicy(cfg.evidencePolicy())
	for _, s := range shards {
		schema.MergeSchemas(global, s, cfg.Theta)
	}
	return global
}

// router drives a sharded run: it pulls the source through the shared
// puller, gates each source batch through the run's epoch clock, feeds each
// shard its sub-batches, and cuts fleet epochs.
type router struct {
	cfg   Config
	pipes []*Pipeline
	feeds []chan *pg.Batch
	pl    *puller
	clock *epochClock       // nil without a drift policy or OnEpoch
	co    *shardCoordinator // nil without a checkpointer
	instr obs.Instr

	// routed[i] counts the sub-batches delivered to shard i since the stream
	// began; batches counts the source batches routed.
	routed  []int
	batches int
	// folded[i] is the stream position of shard i's last folded sub-batch;
	// errs[i] is the error shard i's loop stopped with. mu guards both; the
	// router waits on cond at a cut.
	mu     sync.Mutex
	cond   *sync.Cond
	folded []int
	errs   []error
}

// runSharded restores or builds the fleet, routes the whole stream and
// merges the shard schemas into the Result.
func runSharded(src pg.ErrSource, cfg Config, opts RunOptions) (*Result, error) {
	start := time.Now()
	instr := obs.NewInstr(cfg.Telemetry)
	clock := newEpochClock(cfg, instr)
	pipes := newPipelines(cfg)
	shardSlots := make([]int, cfg.Shards)
	var from resumeState
	if opts.Resume != nil {
		var err error
		if from, shardSlots, err = restore(opts.Resume, cfg, pipes, clock); err != nil {
			return nil, err
		}
	}

	r := &router{
		cfg: cfg, pipes: pipes, clock: clock, instr: instr,
		feeds:  make([]chan *pg.Batch, len(pipes)),
		routed: make([]int, len(pipes)),
		folded: append([]int(nil), shardSlots...),
		errs:   make([]error, len(pipes)),
	}
	r.cond = sync.NewCond(&r.mu)
	r.pl = newPuller(src, from, r.instr)
	if opts.Checkpoint != nil {
		r.co = &shardCoordinator{
			ck:       meter(opts.Checkpoint, r.instr),
			fp:       cfg.fingerprint(),
			sections: make([][]byte, cfg.Shards),
			slots:    from.slots,
			skipped:  append([]SkipReport(nil), from.skipped...),
		}
		var err error
		if r.co.clock, err = encodeClock(clock); err != nil {
			return nil, err
		}
		// Seed every section with its shard's quiescent state so the very
		// first checkpoint is already complete and resumable.
		for i, p := range pipes {
			if r.co.sections[i], err = p.section(shardSlots[i]); err != nil {
				return nil, fmt.Errorf("core: shard %d: %w", i, err)
			}
		}
	}

	var wg sync.WaitGroup
	for i := range pipes {
		r.feeds[i] = make(chan *pg.Batch, cfg.PipelineDepth)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r.shard(i, shardSlots[i])
		}(i)
	}
	err := r.route()
	wg.Wait()
	if err == nil {
		err = r.await(false)
	}
	if err != nil {
		return nil, err
	}
	return r.finish(start), nil
}

// shard runs shard i's engine loop over its feed. The feed only ever
// delivers good batches (the router absorbs upstream faults), so the shard's
// puller just counts sub-batch positions and marks its resume window.
// The loop reports each folded position, and the error that stops it, to
// the router as they happen.
func (r *router) shard(i, skipSlots int) {
	p := r.pipes[i]
	pl := newPuller(pg.AsErrSource(&chanSource{ch: r.feeds[i]}), resumeState{slots: skipSlots}, p.instr)
	var save saver
	if r.co != nil {
		save = func(section []byte, _ int, _ []SkipReport) error { return r.co.save(i, section) }
	}
	progress := func(pos int, err error) {
		r.mu.Lock()
		if err == nil {
			r.folded[i] = pos
		} else if r.errs[i] == nil {
			r.errs[i] = err
		}
		r.mu.Unlock()
		r.cond.Broadcast()
	}
	if err := p.drain(pl, save, progress); err != nil {
		progress(0, err)
	}
	for range r.feeds[i] { // unblock the router if this shard stopped early
	}
}

// await returns the first error a shard stopped with; with cut set it first
// waits until every shard has folded in everything routed to it.
func (r *router) await(cut bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		caughtUp := true
		for i, err := range r.errs {
			if err != nil {
				return fmt.Errorf("core: shard %d: %w", i, err)
			}
			caughtUp = caughtUp && r.folded[i] >= r.routed[i]
		}
		if !cut || caughtUp {
			return nil
		}
		r.cond.Wait()
	}
}

// route pulls the source to its end, gating each fresh source batch through
// the clock, delivering each admitted batch's non-empty sub-batches to the
// shard feeds and cutting a fleet epoch whenever the clock's window is full.
// It stops at the first shard error — a failed checkpoint save — and closes
// every feed on return.
func (r *router) route() error {
	defer func() {
		for _, ch := range r.feeds {
			close(ch)
		}
	}()
	for {
		// A full window is cut before the next pull: right after the batch
		// that filled it or, on resume, once the replay has caught up with a
		// checkpoint saved between that batch and its cut.
		if r.pl.slot >= r.pl.skipSlots && r.clock.due() {
			if err := r.cut(); err != nil {
				return err
			}
		}
		if err := r.await(false); err != nil {
			return err
		}
		b, pos, err := r.pl.next()
		if err != nil || b == nil {
			return err
		}
		if pos <= r.pl.skipSlots {
			// Replay: the checkpointed run already gated this batch. Each shard
			// drops the sub-batches it already folded in.
			if !r.clock.quarantinedAt(pos - 1) {
				r.send(b)
			}
			continue
		}
		admit := r.clock == nil || r.clock.gate(b, r.batches+r.clock.quarantined, pos-1, 0)
		if r.co != nil {
			clock, err := encodeClock(r.clock)
			if err == nil { // no shard saves for a withheld batch: persist it here
				err = r.co.position(pos, r.pl.skipped, clock, !admit)
			}
			if err != nil {
				return fmt.Errorf("core: checkpoint: %w", err)
			}
		}
		if admit {
			r.send(b)
		}
	}
}

// send delivers one source batch's non-empty sub-batches to the shards.
func (r *router) send(b *pg.Batch) {
	for j, part := range pg.PartitionBatch(b, len(r.feeds)) {
		if part.Len() > 0 {
			r.routed[j]++
			r.feeds[j] <- part
		}
	}
	r.batches++
}

// cut takes a fleet epoch at a consistent cut: once every shard has folded
// in everything routed to it, it clones every shard schema, one goroutine
// per shard (the shards are quiescent until the router routes again, and
// the fold rebinds what it is handed, so it must never see a live shard
// schema), waits for every clone, folds them, finalizes and hands the Def
// to the clock.
func (r *router) cut() error {
	if err := r.await(true); err != nil {
		return err
	}
	start := time.Now()
	pol := r.cfg.evidencePolicy()
	clones := make([]*schema.Schema, len(r.pipes))
	var wg sync.WaitGroup
	for i, p := range r.pipes {
		wg.Add(1)
		go func(i int, s *schema.Schema) {
			defer wg.Done()
			clones[i] = s.Clone()
			clones[i].SetEvidencePolicy(pol)
		}(i, p.schema)
	}
	wg.Wait()
	def := r.cfg.finalize(MergeShardSchemas(clones, r.cfg))
	r.clock.take(def, r.batches, r.batches+r.clock.quarantined-1, false, start)
	return nil
}

// finish merges the shard schemas in index order, stamps each report with
// its shard, finalizes the global schema, closes the clock and assembles the
// Result.
func (r *router) finish(start time.Time) *Result {
	cfg := r.cfg
	var reports []BatchReport
	merged := 0
	schemas := make([]*schema.Schema, len(r.pipes))
	for i, p := range r.pipes {
		for _, rep := range p.reports {
			rep.Shard = i
			reports = append(reports, rep)
			merged += rep.Nodes + rep.Edges
		}
		schemas[i] = p.schema
	}
	mStart := time.Now()
	global := MergeShardSchemas(schemas, cfg)
	r.instr.Span(obs.Span{
		Stage: obs.StageMerge, Batch: -1,
		Start: mStart, Duration: time.Since(mStart),
		Elements: merged,
	})
	discovery := time.Since(start)

	fStart := time.Now()
	def := cfg.finalize(global)
	r.instr.Span(obs.Span{
		Stage: obs.StagePostprocess, Batch: -1,
		Start: fStart, Duration: time.Since(fStart),
		Elements: len(def.Nodes) + len(def.Edges),
	})
	post := time.Since(fStart)
	r.clock.close(def, r.batches)

	return &Result{
		Def:         def,
		Schema:      global,
		Reports:     reports,
		Skipped:     r.clock.skips(r.pl.skipped),
		Drift:       r.clock.summary(),
		Discovery:   discovery,
		PostProcess: post,
		Telemetry:   telemetrySnapshot(cfg),
	}
}

// shardCoordinator assembles a fleet's checkpoints: it holds every shard's
// latest section plus the router's current stream position, and rewrites
// the checkpoint whenever any shard saves and whenever the router moves past
// a batch its clock withheld. One mutex serializes shard saves
// against router position updates, so a checkpoint's position is always ≥
// every sub-batch its sections have folded in, and its quarantine list and
// clock are exactly as of that position.
type shardCoordinator struct {
	mu       sync.Mutex
	ck       Checkpointer
	fp       string
	sections [][]byte
	slots    int
	skipped  []SkipReport
	clock    []byte
}

// position records the router's stream progress — its fault quarantines and
// encoded clock as of the batch at slots — before that batch's sub-batches
// are delivered, so no shard state can get ahead of it. With persist set it
// also writes the checkpoint, with every shard's latest section.
func (co *shardCoordinator) position(slots int, skipped []SkipReport, clock []byte, persist bool) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.slots = slots
	co.skipped = append(co.skipped[:0], skipped...)
	co.clock = clock
	if !persist {
		return nil
	}
	return writeCheckpoint(co.ck, co.fp, co.slots, co.skipped, co.clock, co.sections)
}

// save installs shard's newest section, which it takes over, and persists
// the checkpoint.
func (co *shardCoordinator) save(shard int, section []byte) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sections[shard] = section
	return writeCheckpoint(co.ck, co.fp, co.slots, co.skipped, co.clock, co.sections)
}
