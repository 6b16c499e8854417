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
// shards. With Config.OnEpoch set it also publishes fleet epochs: every
// EpochInterval source batches it waits until every shard has folded in
// what it was routed, folds clones of the shard schemas with
// MergeShardSchemas and finalizes — so fleet epoch k is byte-identical to
// Discover over the stream's first k·EpochInterval batches.
//
// With a checkpointer, Run saves the whole fleet into one PGCK8 container:
// the router's stream position and quarantine list plus one complete PGCK7
// section per shard. Sections advance independently (each shard
// checkpoints after its own extractions), so a container pairs the newest
// state of the shard that just saved with the latest states of the rest;
// on resume (RunOptions.Resume) the router replays the stream from the beginning and each
// shard's own skip window drops exactly the sub-batches it already folded
// in. Because the element→shard assignment ignores batch boundaries, the
// replayed sub-batch sequence is identical, and the resumed run converges to
// byte-identical Finalize output (TestShardedResume). Cuts inside the
// replayed window publish no epoch: the shards are already past them.
package core

import (
	"bytes"
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
// N concurrent engines don't oversubscribe the host, and the epoch hook is
// dropped — epochs are published for the whole fleet by the router.
func shardConfig(cfg Config, i int) Config {
	sc := cfg
	sc.Shards = 0
	sc.OnEpoch = nil
	sc.Telemetry = obs.ShardSink(cfg.Telemetry, i)
	sc.driftShard = i
	if w := cfg.Parallelism / cfg.Shards; w >= 1 {
		sc.Parallelism = w
	} else {
		sc.Parallelism = 1
	}
	return sc
}

// newShardPipelines builds one fresh pipeline per shard.
func newShardPipelines(cfg Config) []*Pipeline {
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
// puller, feeds each shard its sub-batches, and publishes fleet epochs at
// consistent cuts.
type router struct {
	cfg   Config
	pipes []*Pipeline
	feeds []chan *pg.Batch
	pl    *puller
	co    *shardCoordinator // nil without a checkpointer
	instr obs.Instr

	// routed[i] counts the sub-batches delivered to shard i since the stream
	// began; batches counts the good source batches routed.
	routed  []int
	batches int
	// folded[i] is the stream position of shard i's last folded sub-batch;
	// errs[i] is the error shard i's loop stopped with. mu guards both; the
	// router waits on cond at a cut.
	mu     sync.Mutex
	cond   *sync.Cond
	folded []int
	errs   []error
	// prevDef is the last fleet epoch's schema, the base of the next diff.
	prevDef *schema.Def
}

// runSharded restores or builds the fleet, routes the whole stream and
// merges the shard schemas into the Result.
func runSharded(src pg.ErrSource, cfg Config, opts RunOptions) (*Result, error) {
	start := time.Now()
	pipes := newShardPipelines(cfg)
	shardSlots := make([]int, cfg.Shards)
	var from resumeState
	if opts.Resume != nil {
		sections, slots, skipped, err := decodeShardContainer(opts.Resume, cfg)
		if err != nil {
			return nil, err
		}
		for i := range pipes {
			p, s, shardSkips, err := ResumePipeline(bytes.NewReader(sections[i]), shardConfig(cfg, i))
			if err != nil {
				return nil, fmt.Errorf("core: shard %d: %w", i, err)
			}
			// A shard's feed only ever delivers good batches, so its restored
			// skip list holds exclusively drift quarantines: carry it forward
			// so later shard checkpoints and the final Result keep reporting
			// them.
			p.driftSkipped = shardSkips
			pipes[i] = p
			shardSlots[i] = s
		}
		from = resumeState{slots: slots, skipped: skipped}
	}

	r := &router{
		cfg: cfg, pipes: pipes, instr: obs.NewInstr(cfg.Telemetry),
		feeds:  make([]chan *pg.Batch, len(pipes)),
		routed: make([]int, len(pipes)),
		folded: append([]int(nil), shardSlots...),
		errs:   make([]error, len(pipes)),
	}
	r.cond = sync.NewCond(&r.mu)
	r.pl = newPuller(src, from, r.instr)
	if opts.Checkpoint != nil {
		r.co = &shardCoordinator{
			ck:      meter(opts.Checkpoint, r.instr),
			cfg:     cfg,
			states:  make([][]byte, cfg.Shards),
			slots:   from.slots,
			skipped: append([]SkipReport(nil), from.skipped...),
		}
		// Seed every section with its shard's quiescent state so the very
		// first container is already complete and resumable.
		for i, p := range pipes {
			var buf bytes.Buffer
			if err := p.EncodeCheckpoint(&buf, shardSlots[i], nil); err != nil {
				return nil, fmt.Errorf("core: shard %d: %w", i, err)
			}
			r.co.states[i] = buf.Bytes()
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
// puller just counts sub-batch positions and honors its resume skip window.
// The loop reports each folded position, and the error that stops it, to
// the router as they happen.
func (r *router) shard(i, skipSlots int) {
	p := r.pipes[i]
	pl := newPuller(pg.AsErrSource(&chanSource{ch: r.feeds[i]}), resumeState{slots: skipSlots}, p.instr)
	var ck Checkpointer
	if r.co != nil {
		ck = shardSaver{co: r.co, shard: i}
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
	if err := p.drain(pl, ck, progress); err != nil {
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

// route pulls the source to its end, delivering each good batch's
// non-empty sub-batches to the shard feeds and cutting a fleet epoch every
// EpochInterval source batches. It stops at the first shard error — a
// failed checkpoint save — and closes every feed on return.
func (r *router) route() error {
	defer func() {
		for _, ch := range r.feeds {
			close(ch)
		}
	}()
	for {
		if err := r.await(false); err != nil {
			return err
		}
		b, pos, err := r.pl.next()
		if err != nil || b == nil {
			return err
		}
		// On resume every good batch is re-delivered (each shard drops its
		// own already folded sub-batches); positions inside the skip window
		// are already in the container.
		fresh := pos > r.pl.skipSlots
		if r.co != nil && fresh {
			r.co.position(pos, r.pl.skipped)
		}
		for j, part := range pg.PartitionBatch(b, len(r.feeds)) {
			if part.Len() > 0 {
				r.routed[j]++
				r.feeds[j] <- part
			}
		}
		r.batches++
		if r.cfg.OnEpoch != nil && fresh && r.batches%r.cfg.EpochInterval == 0 {
			if err := r.cut(); err != nil {
				return err
			}
		}
	}
}

// cut publishes a fleet epoch at a consistent cut: once every shard has
// folded in everything routed to it, it clones the shard schemas through
// the checkpoint codec (the fold rebinds what it is handed, so it must never
// see a live shard schema), folds the clones and finalizes.
func (r *router) cut() error {
	if err := r.await(true); err != nil {
		return err
	}
	start := time.Now()
	clones := make([]*schema.Schema, len(r.pipes))
	for i, p := range r.pipes {
		var buf bytes.Buffer
		w := pg.NewWireWriter(&buf)
		err := schema.WriteSchema(w, p.schema)
		if err == nil {
			err = w.Flush()
		}
		if err == nil {
			clones[i], err = schema.ReadSchema(pg.NewWireReader(&buf))
		}
		if err != nil {
			return fmt.Errorf("core: fleet epoch: shard %d: %w", i, err)
		}
		clones[i].SetEvidencePolicy(r.cfg.evidencePolicy())
	}
	r.publish(r.cfg.finalize(MergeShardSchemas(clones, r.cfg)), false, start)
	return nil
}

// publish hands one fleet epoch to Config.OnEpoch. The epoch number is the
// cut's index in the stream, so it is the same whether or not the run was
// resumed.
func (r *router) publish(def *schema.Def, final bool, start time.Time) {
	var changes []schema.Change
	if r.prevDef != nil {
		changes = schema.Diff(r.prevDef, def)
	}
	r.prevDef = def
	epoch := r.batches / r.cfg.EpochInterval
	if final {
		epoch++
	}
	r.instr.Add(obs.CtrEpochs, 1)
	r.instr.Span(obs.Span{
		Stage: obs.StageEpoch, Batch: r.batches - 1,
		Start: start, Duration: time.Since(start),
		Elements: len(changes),
	})
	r.cfg.OnEpoch(EpochSnapshot{
		Epoch: epoch, Batches: r.batches, Seq: r.batches - 1, Final: final,
		Def: def, Changes: changes,
	})
}

// finish merges the shard schemas in index order, stamps each report with
// its shard, finalizes the global schema, closes the last partial fleet
// epoch and assembles the Result.
func (r *router) finish(start time.Time) *Result {
	cfg := r.cfg
	skipped := r.pl.skipped
	var reports []BatchReport
	var drift *DriftSummary
	merged := 0
	schemas := make([]*schema.Schema, len(r.pipes))
	for i, p := range r.pipes {
		// Close each shard's final partial drift epoch before merging (shards
		// never call their own Finalize; the global schema is finalized
		// below) and fold its drift activity into the run-level summary.
		// Shard-level skip slots are positions in the shard's own sub-batch
		// stream, so the reason names the shard.
		p.driftFinalEpoch()
		if ds := p.driftSummary(); ds != nil {
			if drift == nil {
				drift = ds
			} else {
				drift.merge(ds)
			}
		}
		for _, s := range p.driftSkipped {
			s.Reason = fmt.Sprintf("shard %d: %s", i, s.Reason)
			skipped = append(skipped, s)
		}
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
	// The last partial window closes like the single pipeline's
	// driftFinalEpoch: only after at least one cut, and only if batches
	// followed it.
	if cfg.OnEpoch != nil && r.batches >= cfg.EpochInterval && r.batches%cfg.EpochInterval != 0 {
		r.publish(def, true, time.Now())
	}

	return &Result{
		Def:         def,
		Schema:      global,
		Reports:     reports,
		Skipped:     skipped,
		Drift:       drift,
		Discovery:   discovery,
		PostProcess: post,
		Telemetry:   telemetrySnapshot(cfg),
	}
}

// shardCheckpointMagic versions the sharded checkpoint container: router
// position + quarantine list + one complete PGCK7 section per shard (PGCK8
// tracks the per-shard drift section of PGCK7, as PGCK6 tracked PGCK5). The
// shard count is validated explicitly from the header (it is not part of
// the configuration fingerprint), so a container written for N shards
// resumes only under Shards = N.
const shardCheckpointMagic = "PGCK8"

// maxShards bounds the shard count accepted from an untrusted container.
const maxShards = 1 << 16

// encodeShardContainer writes one fleet container.
func encodeShardContainer(w *bytes.Buffer, cfg Config, slots int, skipped []SkipReport, states [][]byte) error {
	bw := pg.NewWireWriter(w)
	bw.Raw([]byte(shardCheckpointMagic))
	bw.String(cfg.fingerprint())
	bw.Uvarint(uint64(len(states)))
	bw.Uvarint(uint64(slots))
	bw.Uvarint(uint64(len(skipped)))
	for _, s := range skipped {
		bw.Varint(int64(s.Seq))
		bw.String(s.Reason)
	}
	for _, st := range states {
		bw.String(string(st))
	}
	return bw.Flush()
}

// decodeShardContainer parses a fleet container, validating the fingerprint
// and that it was written for exactly cfg.Shards shards.
func decodeShardContainer(state []byte, cfg Config) (sections [][]byte, slots int, skipped []SkipReport, err error) {
	br := pg.NewWireReader(bytes.NewReader(state))
	if err := br.Expect(shardCheckpointMagic); err != nil {
		return nil, 0, nil, fmt.Errorf("core: shard checkpoint: %w", err)
	}
	fp, err := br.String()
	if err != nil {
		return nil, 0, nil, fmt.Errorf("core: shard checkpoint fingerprint: %w", err)
	}
	if want := cfg.fingerprint(); fp != want {
		return nil, 0, nil, fmt.Errorf("core: shard checkpoint was written under a different configuration:\n  checkpoint: %s\n  current:    %s", fp, want)
	}
	n, err := br.Uvarint(maxShards)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("core: shard checkpoint shard count: %w", err)
	}
	if int(n) != cfg.Shards {
		return nil, 0, nil, fmt.Errorf("core: shard checkpoint was written for %d shards, resuming with %d", n, cfg.Shards)
	}
	s, err := br.Uvarint(1 << 40)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("core: shard checkpoint slots: %w", err)
	}
	slots = int(s)
	skipCount, err := br.Uvarint(maxSkipped)
	if err != nil {
		return nil, 0, nil, err
	}
	for i := uint64(0); i < skipCount; i++ {
		seq, err := br.Varint()
		if err != nil {
			return nil, 0, nil, err
		}
		reason, err := br.String()
		if err != nil {
			return nil, 0, nil, err
		}
		skipped = append(skipped, SkipReport{Seq: int(seq), Reason: reason})
	}
	sections = make([][]byte, n)
	for i := range sections {
		sec, err := br.String()
		if err != nil {
			return nil, 0, nil, fmt.Errorf("core: shard checkpoint section %d: %w", i, err)
		}
		sections[i] = []byte(sec)
	}
	return sections, slots, skipped, nil
}

// shardCoordinator assembles PGCK8 containers: it holds every shard's latest
// encoded PGCK7 state plus the router's current stream position, and rewrites
// the container whenever any shard checkpoints. One mutex serializes shard
// saves against router position updates, so a container's position is always
// ≥ every sub-batch its sections have folded in, and its quarantine list is
// the exact list as of that position.
type shardCoordinator struct {
	mu      sync.Mutex
	ck      Checkpointer
	cfg     Config
	states  [][]byte
	slots   int
	skipped []SkipReport
}

// position records the router's stream progress (called before the slot's
// sub-batches are delivered, so no shard state can get ahead of it).
func (co *shardCoordinator) position(slots int, skipped []SkipReport) {
	co.mu.Lock()
	co.slots = slots
	co.skipped = append(co.skipped[:0], skipped...)
	co.mu.Unlock()
}

// save installs shard's newest state and persists the container.
func (co *shardCoordinator) save(shard int, state []byte) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.states[shard] = append([]byte(nil), state...)
	var buf bytes.Buffer
	if err := encodeShardContainer(&buf, co.cfg, co.slots, co.skipped, co.states); err != nil {
		return fmt.Errorf("core: encode shard container: %w", err)
	}
	return co.ck.Save(buf.Bytes())
}

// shardSaver is shard i's Checkpointer view of the coordinator.
type shardSaver struct {
	co    *shardCoordinator
	shard int
}

// Save implements Checkpointer.
func (s shardSaver) Save(state []byte) error { return s.co.save(s.shard, state) }
