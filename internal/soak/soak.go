// Package soak runs sustained schema discovery over a declarative
// adversarial scenario and checks the system's guarantees while it runs:
// monotone type/property growth across checkpoints (PG-HIVE Lemmas 1–2),
// checkpoint resumability, kill-anywhere byte-identical resume,
// sharded-vs-serial schema equivalence, and bounded retained heap. Faults
// are injected with the seeded pg.FaultSource, kills with a source wrapper
// that fails permanently after a delivery budget, so every soak run is
// reproducible end to end.
package soak

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"pghive/internal/core"
	"pghive/internal/datagen"
	"pghive/internal/infer"
	"pghive/internal/obs"
	"pghive/internal/pg"
	"pghive/internal/schema"
	"pghive/internal/serialize"
)

// Options configure one soak run.
type Options struct {
	// Scenario is the workload to play (required).
	Scenario *datagen.Scenario
	// Seed drives the scenario stream and the fault injection.
	Seed int64
	// Repeat plays the scenario timeline this many times back to back
	// (0/1 = once) — how a short declarative timeline becomes a long soak.
	Repeat int
	// Config is the discovery configuration (Shards, Method, Theta,
	// PipelineDepth, Telemetry...). Zero fields take core defaults.
	Config core.Config
	// Faults is the injected fault profile. Seed defaults to Options.Seed;
	// FailAfter must stay zero (kills are injected by the harness so they
	// survive resume replay).
	Faults pg.FaultProfile
	// Window is how many checkpoints pass between invariant checks
	// (default DefaultWindow).
	Window int
	// Kills is how many kill/resume cycles to inject (each kills the run
	// after a growing delivery budget and resumes from the last
	// checkpoint).
	Kills int
	// KillEvery is the delivery budget between kills (default
	// DefaultKillEvery).
	KillEvery int
	// MemBudgetBytes bounds retained heap (checked per window after a GC);
	// 0 disables the check. A non-zero budget is also wired into
	// Config.MemBudgetBytes (unless the Config sets its own), so the run
	// soaks the same sketched evidence mode the budget enforces and a
	// second window invariant checks the checkpointed evidence footprint
	// against it.
	MemBudgetBytes uint64
	// CheckEquivalence re-runs the scenario serially and compares the
	// labeled projection against the sharded result (only meaningful with
	// Config.Shards > 1). Incompatible with Config.DriftPolicy quarantine:
	// the router quarantines whole source batches at the serial run's epoch
	// boundaries, but it validates them against the fleet's merged epoch
	// schemas, which are not the serial run's, so the two runs may withhold
	// different batches and no equivalence level applies.
	CheckEquivalence bool
	// SkipResumeCheck disables the final uninterrupted reference run that
	// proves kill/resume byte-identity (it doubles the work).
	SkipResumeCheck bool
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// Soak defaults.
const (
	DefaultWindow    = 4
	DefaultKillEvery = 8
)

// Violation is one failed invariant.
type Violation struct {
	// Window is the invariant window that failed (-1 for end-of-run checks).
	Window int
	// Invariant names the failed check (monotone-growth, def-monotone,
	// resumable, resume-identity, shard-equivalence, heap-budget,
	// evidence-budget, drift-accounting).
	Invariant string
	// Detail says what went wrong.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("window %d: %s: %s", v.Window, v.Invariant, v.Detail)
}

// Report is the outcome of a soak run.
type Report struct {
	Scenario    string
	Shards      int
	Batches     int
	Nodes       int
	Edges       int
	Quarantined int
	Kills       int
	Checkpoints int
	Windows     int
	HeapPeak    uint64
	// EvidencePeak is the largest checkpointed evidence footprint seen in
	// any window (schema.EvidenceBytes summed over shards); only tracked
	// when the memory budget is enforced in sketched mode.
	EvidencePeak uint64
	Elapsed      time.Duration
	NodeTypes    int
	EdgeTypes    int
	// Drift aggregates the streaming conformance checker's verdicts (nil
	// when Config.DriftPolicy is off).
	Drift *core.DriftSummary
	// StreamHash fingerprints the generated element stream.
	StreamHash string
	// SchemaJSON is the finalized schema.
	SchemaJSON []byte
	// Violations is empty on a healthy run.
	Violations []Violation
}

// OK reports whether every invariant held.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// errKill is the sentinel permanent fault the kill injector raises.
var errKill = errors.New("soak: injected kill")

// killSource fails permanently after delivering budget good batches —
// unlike FaultProfile.FailAfter it is re-armed with a larger budget on
// every resume segment, so the replayed prefix doesn't re-trigger it.
type killSource struct {
	inner  pg.ErrSource
	budget int // deliveries remaining; < 0 = never kill
}

func (k *killSource) Next() (*pg.Batch, error) {
	if k.budget == 0 {
		return nil, errKill
	}
	b, err := k.inner.Next()
	if err == nil && b != nil && k.budget > 0 {
		k.budget--
	}
	return b, err
}

// Run plays the scenario through core.Run, injecting kills (each segment
// after the first resumes from the last checkpoint) and checking
// invariants, and reports what it saw. A non-nil error means the run
// itself broke (not an invariant — those land in Report.Violations).
func Run(opts Options) (*Report, error) {
	if opts.Scenario == nil {
		return nil, errors.New("soak: no scenario")
	}
	if err := opts.Scenario.Validate(); err != nil {
		return nil, err
	}
	if opts.Faults.FailAfter != 0 {
		return nil, errors.New("soak: use Kills/KillEvery, not FaultProfile.FailAfter")
	}
	if opts.CheckEquivalence && opts.Config.DriftPolicy == core.DriftQuarantine {
		return nil, errors.New("soak: shard equivalence is undefined under drift policy quarantine (fleet epochs may quarantine different batches)")
	}
	if opts.Repeat < 1 {
		opts.Repeat = 1
	}
	if opts.Window < 1 {
		opts.Window = DefaultWindow
	}
	if opts.KillEvery < 1 {
		opts.KillEvery = DefaultKillEvery
	}
	if opts.Faults.Seed == 0 {
		opts.Faults.Seed = opts.Seed
	}
	cfg := opts.Config
	// The soak heap budget doubles as the pipeline's enforced evidence
	// budget, so the heap invariant polices a budget the system actually
	// acts on (sketched counters) rather than a number only the harness
	// knows about.
	if opts.MemBudgetBytes > 0 && cfg.MemBudgetBytes == 0 {
		cfg.MemBudgetBytes = int64(opts.MemBudgetBytes)
	}
	instr := obs.NewInstr(cfg.Telemetry)

	rep := &Report{Scenario: opts.Scenario.Name, Shards: cfg.Shards}
	rep.StreamHash, _, _, _ = datagen.HashStream(opts.Scenario.StreamN(opts.Seed, opts.Repeat))
	start := time.Now()

	checker := &checker{opts: &opts, cfg: cfg, rep: rep, instr: instr}

	// Segment loop: run until the stream drains, resuming from the last
	// checkpoint after each injected kill. Segment k's delivery budget is
	// (k+1)·KillEvery: the source replays from the beginning on resume, so
	// the budget must outgrow the already-folded prefix for the run to
	// advance.
	var result *core.Result
	for segment := 0; ; segment++ {
		budget := -1
		if segment < opts.Kills {
			budget = (segment + 1) * opts.KillEvery
		}
		src := &killSource{inner: opts.faultedSource(), budget: budget}
		var err error
		result, err = core.Run(src, cfg, core.RunOptions{Checkpoint: checker, Resume: checker.last})
		if err == nil {
			break
		}
		if !errors.Is(err, errKill) {
			return nil, fmt.Errorf("soak: segment %d: %w", segment, err)
		}
		if len(checker.last) == 0 {
			return nil, fmt.Errorf("soak: killed before the first checkpoint (raise -kill-every)")
		}
		rep.Kills++
		instr.Add(obs.CtrSoakKills, 1)
		opts.logf("kill %d injected after %d deliveries; resuming from checkpoint %d",
			rep.Kills, (segment+1)*opts.KillEvery, checker.saves)
	}

	rep.Elapsed = time.Since(start)
	for _, r := range result.Reports {
		rep.Batches++
		rep.Nodes += r.Nodes
		rep.Edges += r.Edges
	}
	rep.Quarantined = len(result.Skipped)
	rep.Drift = result.Drift
	rep.NodeTypes = len(result.Def.Nodes)
	rep.EdgeTypes = len(result.Def.Edges)
	var buf bytes.Buffer
	if err := serialize.WriteJSON(&buf, result.Def); err != nil {
		return nil, err
	}
	rep.SchemaJSON = buf.Bytes()

	// End-of-run invariants.
	if got := schema.TypeFingerprint(result.Schema); !schema.FingerprintSubset(checker.lastFp, got) {
		rep.violate(instr, -1, "monotone-growth", "final schema lost types or properties present in the last checkpoint")
	}
	if checker.lastDef != nil {
		if lost := defRemovals(checker.lastDef, result.Def); len(lost) > 0 {
			rep.violate(instr, -1, "def-monotone",
				"final schema regressed from the last window: "+strings.Join(lost, "; "))
		}
	}
	if d := rep.Drift; d != nil {
		// Drift accounting: every quarantine the checker counted must show
		// up as a skip report tagged with a drift reason, and vice versa —
		// and only the quarantine policy may route batches there.
		tagged := 0
		for _, s := range result.Skipped {
			if strings.Contains(s.Reason, "drift:") {
				tagged++
			}
		}
		if tagged != int(d.Quarantined) {
			rep.violate(instr, -1, "drift-accounting",
				fmt.Sprintf("%d drift-tagged skip reports vs %d quarantined batches counted by the checker", tagged, d.Quarantined))
		}
		if d.Policy != core.DriftQuarantine && d.Quarantined != 0 {
			rep.violate(instr, -1, "drift-accounting",
				fmt.Sprintf("policy %s quarantined %d batches; only the quarantine policy may skip", d.Policy, d.Quarantined))
		}
	}
	// Reference runs replay the stream with the same config but must not
	// append to the caller's drift log — the JSONL sink describes the main
	// run only.
	refCfg := cfg
	refCfg.DriftLog = nil
	if rep.Kills > 0 && !opts.SkipResumeCheck {
		opts.logf("verifying kill/resume byte-identity against an uninterrupted run")
		ref, err := core.Run(&killSource{inner: opts.faultedSource(), budget: -1}, refCfg, core.RunOptions{})
		if err != nil {
			return nil, fmt.Errorf("soak: reference run: %w", err)
		}
		var refBuf bytes.Buffer
		if err := serialize.WriteJSON(&refBuf, ref.Def); err != nil {
			return nil, err
		}
		if !bytes.Equal(refBuf.Bytes(), rep.SchemaJSON) {
			rep.violate(instr, -1, "resume-identity",
				fmt.Sprintf("schema after %d kill/resume cycles differs from the uninterrupted run", rep.Kills))
		}
	}
	if opts.CheckEquivalence && cfg.Shards > 1 {
		opts.logf("verifying sharded-vs-serial schema equivalence")
		serialCfg := refCfg
		serialCfg.Shards = 0
		ref, err := core.Run(&killSource{inner: opts.faultedSource(), budget: -1}, serialCfg, core.RunOptions{})
		if err != nil {
			return nil, fmt.Errorf("soak: serial reference run: %w", err)
		}
		level := ScenarioEquivalenceLevel(opts.Scenario, opts.Seed, opts.Repeat)
		if diff := EquivalenceDiff(ref.Def, result.Def, level); diff != "" {
			rep.violate(instr, -1, "shard-equivalence", diff)
		}
	}
	opts.logf("%s: %d batches (%d quarantined), %d+%d elements, %d kills, %d checkpoints, %d windows, %d violations in %v",
		rep.Scenario, rep.Batches, rep.Quarantined, rep.Nodes, rep.Edges,
		rep.Kills, rep.Checkpoints, rep.Windows, len(rep.Violations), rep.Elapsed.Round(time.Millisecond))
	return rep, nil
}

// faultedSource builds a fresh, replay-identical fallible stream: scenario
// batches through the seeded fault injector.
func (o *Options) faultedSource() pg.ErrSource {
	src := pg.AsErrSource(o.Scenario.StreamN(o.Seed, o.Repeat))
	if o.Faults.TransientRate > 0 || o.Faults.CorruptRate > 0 || o.Faults.TruncateRate > 0 {
		return pg.NewFaultSource(src, o.Faults)
	}
	return src
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, "soak: "+format+"\n", args...)
	}
}

func (r *Report) violate(instr obs.Instr, window int, invariant, detail string) {
	r.Violations = append(r.Violations, Violation{Window: window, Invariant: invariant, Detail: detail})
	instr.Add(obs.CtrSoakViolations, 1)
}

// checker is the soak harness's core.Checkpointer: it retains the latest
// checkpoint for resume, and every Window saves it decodes the state
// (resumability), compares type fingerprints against the previous window
// (monotone growth), and polices the heap budget.
type checker struct {
	opts  *Options
	cfg   core.Config
	rep   *Report
	instr obs.Instr

	saves   int
	last    []byte
	lastFp  map[string][]string
	lastDef *schema.Def
}

// windowDef finalizes a window's decoded checkpoint schemas into the Def a
// reader of the system would see at that point — merging shard partials
// with the engine's own fold.
func windowDef(schemas []*schema.Schema, cfg core.Config) *schema.Def {
	opts := infer.Options{SampleBased: cfg.SampleDatatypes, Participation: cfg.Participation}
	if len(schemas) == 1 {
		return infer.Finalize(schemas[0], opts)
	}
	return infer.Finalize(core.MergeShardSchemas(schemas, cfg), opts)
}

// defRemovals lists the monotonicity-breaking changes between two
// consecutive window defs: a type or property present earlier but gone now.
// Additions and statistic shifts are legitimate growth; removals violate
// Lemmas 1–2 at the finalized-schema level.
func defRemovals(prev, cur *schema.Def) []string {
	var lost []string
	for _, ch := range schema.Diff(prev, cur) {
		switch ch.Kind {
		case schema.TypeRemoved:
			lost = append(lost, fmt.Sprintf("type %s removed", ch.TypeName))
		case schema.PropertyRemoved:
			lost = append(lost, fmt.Sprintf("property %s.%s removed", ch.TypeName, ch.Property))
		}
	}
	return lost
}

// Save implements core.Checkpointer.
func (c *checker) Save(state []byte) error {
	c.saves++
	c.rep.Checkpoints++
	c.last = append(c.last[:0], state...)
	if c.saves%c.opts.Window != 0 {
		return nil
	}
	window := c.saves / c.opts.Window
	c.rep.Windows++
	c.instr.Add(obs.CtrSoakWindows, 1)

	schemas, err := core.DecodeCheckpointSchemas(state, c.cfg)
	if err != nil {
		c.rep.violate(c.instr, window, "resumable", err.Error())
		return nil // keep soaking; the violation is the signal
	}
	fp := map[string][]string{}
	for _, s := range schemas {
		for k, props := range schema.TypeFingerprint(s) {
			fp[k] = unionSorted(fp[k], props)
		}
	}
	if c.lastFp != nil && !schema.FingerprintSubset(c.lastFp, fp) {
		c.rep.violate(c.instr, window, "monotone-growth",
			fmt.Sprintf("checkpoint %d lost types or properties relative to the previous window", c.saves))
	}
	c.lastFp = fp

	// Def-level monotonicity: the raw fingerprints above watch the evidence
	// layer; this watches what a reader would actually be served — the
	// finalized (and, when sharded, merged) Def must never lose a type or a
	// property across consecutive windows.
	def := windowDef(schemas, c.cfg)
	if c.lastDef != nil {
		if lost := defRemovals(c.lastDef, def); len(lost) > 0 {
			c.rep.violate(c.instr, window, "def-monotone",
				fmt.Sprintf("checkpoint %d finalized schema regressed: %s", c.saves, strings.Join(lost, "; ")))
		}
	}
	c.lastDef = def

	// When the budget is enforced (sketched evidence mode), the decoded
	// checkpoint state itself must honor it: the evidence footprint is the
	// part of the retained heap the budget policy controls directly.
	if budget := c.opts.MemBudgetBytes; budget > 0 && c.cfg.MemBudgetBytes > 0 {
		var ev uint64
		for _, s := range schemas {
			ev += uint64(s.EvidenceBytes())
		}
		if ev > c.rep.EvidencePeak {
			c.rep.EvidencePeak = ev
		}
		if ev > budget {
			c.rep.violate(c.instr, window, "evidence-budget",
				fmt.Sprintf("checkpointed evidence %d bytes exceeds the enforced budget %d", ev, budget))
		}
	}

	if budget := c.opts.MemBudgetBytes; budget > 0 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > c.rep.HeapPeak {
			c.rep.HeapPeak = ms.HeapAlloc
		}
		if ms.HeapAlloc > budget {
			c.rep.violate(c.instr, window, "heap-budget",
				fmt.Sprintf("retained heap %d bytes exceeds budget %d", ms.HeapAlloc, budget))
		}
	}
	c.opts.logf("window %d: %d checkpoints, %d type keys", window, c.saves, len(fp))
	return nil
}
