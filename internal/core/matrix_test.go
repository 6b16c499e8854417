package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pghive/internal/datagen"
	"pghive/internal/obs"
	"pghive/internal/pg"
	"pghive/internal/schema"
)

// TestConfigMatrix checks the contract the `checkpoint` tags of Config
// declare over a lattice of input × method × depth × shards × memory budget
// × drift policy × source faults × kill point: a pinned row for each case of
// the per-knob identity tests it replaced, and a fixed-seed sample of the
// whole product (not in race builds, where its sketched fleets would take
// about ten seconds on two CPUs). Every row checks that
//
//	(a) a rerun with every execution-only setter of configSetters, the
//	    quarantine-only ones too without quarantine (so drift runs under
//	    evolve), and Shards 0↔1 keeps the JSON and DDL bytes and the reports
//	    (count, order, per-batch cluster counts);
//	(b) a transient source gives the clean one's bytes, and corrupt faults
//	    quarantine the same slots at every depth and shard count;
//	(c) killed at the kill point and resumed from its checkpoint file, the
//	    run gives the uninterrupted bytes and drift summary;
//	(d) a fleet is equivalent to the serial run at the input's level (two
//	    fleet runs agreeing byte for byte is (a));
//	(e) each checkpoint section's type fingerprint contains the previous
//	    checkpoint's (Lemmas 1–2), and the last holds the live types;
//	(f) the last checkpoint restores the run's drift quarantines.
//
// Runs with the same input, fingerprint, section count and fault class must
// agree, so each run is checked against the first of its key.
func TestConfigMatrix(t *testing.T) {
	m := &matrix{inputs: matrixInputs(t), seen: map[string]*outcome{}}
	rows := pinnedRows()
	if !raceEnabled {
		rows = append(rows, m.sampledRows(t, 16)...)
	}
	for _, r := range rows {
		t.Run(r.String(), func(t *testing.T) { m.check(t, r) })
	}
}

// raceEnabled reports a race-detector build (race_test.go).
var raceEnabled bool

// matrixInput is a stream and the sharded-vs-serial equivalence level it
// supports by soak.ScenarioEquivalenceLevel's rule: label mixing grades
// coverage, unlabeled elements labeled. The drift stream's Person|Org nodes
// carry Org's properties, so its clusters are not label-pure either; the
// vocab stream is graded labeled like the engine stream.
type matrixInput struct {
	batches []*pg.Batch
	level   schema.EquivalenceLevel
}

func matrixInputs(t testing.TB) map[string]matrixInput {
	scenario := func(name string) (out []*pg.Batch) { // at most two 80-node batches a phase
		sc := *datagen.ScenarioByName(name)
		sc.BatchNodes, sc.Phases = 80, slices.Clone(sc.Phases)
		for i := range sc.Phases {
			sc.Phases[i].Batches = min(sc.Phases[i].Batches, 2)
			sc.Phases[i].NodesPerBatch = min(sc.Phases[i].NodesPerBatch, 80)
		}
		src := sc.Stream(1)
		for b := src.Next(); b != nil; b = src.Next() {
			out = append(out, b)
		}
		return out
	}
	return map[string]matrixInput{
		"engine":     {faultFreeBatches(t, 300, 6), schema.EquivLabeled},
		"drift":      {driftStream(4, 4), schema.EquivLabeled},
		"vocab":      {vocabStream(false), schema.EquivLabeled},
		"near-theta": {scenario("near-theta"), schema.EquivCoverage},
		"supernodes": {scenario("supernodes"), schema.EquivCoverage},
	}
}

// vocabStream is eight batches whose label-set vocabulary grows by five
// node labels a batch, to 40 (plus the edge label LINKS), so every batch
// trains new label-set tokens against the session's earlier ones: a run
// resumed after a kill embeds them as the uninterrupted run did only by
// replaying its resume window, and one that skips that preprocessing
// diverges. Each label's four nodes carry its own two properties and link
// to the next node with a LINKS edge. With variants set, every batch from the
// second on also carries a lower-case and a plural variant of earlier
// labels, with their properties, which AlignLabels folds into them; so a
// run killed at any batch sees variants on both sides of the kill.
func vocabStream(variants bool) []*pg.Batch {
	rng := rand.New(rand.NewSource(29))
	var words []string // random, so no two align
	word := func() string {
		w := []byte{byte('A' + rng.Intn(26))}
		for len(w) < 8 {
			w = append(w, byte('a'+rng.Intn(26)))
		}
		words = append(words, string(w))
		return string(w)
	}
	var batches []*pg.Batch
	id := pg.ID(1)
	for i := 0; i < 8; i++ {
		type member struct{ label, props string }
		var members []member
		for j := 0; j < 5; j++ {
			w := word()
			members = append(members, member{w, w})
		}
		if variants && i > 0 {
			old := words[rng.Intn(len(words)-5)]
			members = append(members, member{strings.ToLower(old), old}, member{old + "s", old})
		}
		b := &pg.Batch{}
		for _, m := range members {
			for k := 0; k < 4; k++ {
				b.Nodes = append(b.Nodes, pg.NodeRecord{ID: id, Labels: []string{m.label},
					Props: pg.Properties{m.props + "_a": pg.Int(int64(k)), m.props + "_b": pg.Str("v")}})
				id++
			}
		}
		for j := 1; j < len(b.Nodes); j++ {
			src, dst := &b.Nodes[j-1], &b.Nodes[j]
			b.Edges = append(b.Edges, pg.EdgeRecord{ID: id, Labels: []string{"LINKS"},
				Src: src.ID, Dst: dst.ID, SrcLabels: src.Labels, DstLabels: dst.Labels,
				Props: pg.Properties{"w": pg.Int(int64(j))}})
			id++
		}
		batches = append(batches, b)
	}
	return batches
}

// matrixSources is the source dimension. Transient faults are retried in
// place, so transient sources are in the clean fault class.
var matrixSources = map[string]struct {
	profile pg.FaultProfile
	retry   bool
	class   string
}{
	"clean":           {class: "clean"},
	"transient":       {profile: pg.FaultProfile{TransientRate: 0.3, Seed: 77}, class: "clean"},
	"transient+retry": {profile: pg.FaultProfile{TransientRate: 0.3, Seed: 77}, retry: true, class: "clean"},
	"corrupt":         {profile: pg.FaultProfile{CorruptRate: 0.25, Seed: 5}, class: "corrupt"},
	"truncate":        {profile: pg.FaultProfile{TruncateRate: 0.25, Seed: 5}, class: "truncate"},
	"mixed":           {profile: pg.FaultProfile{TransientRate: 0.2, CorruptRate: 0.15, TruncateRate: 0.1, Seed: 5}, class: "mixed"},
}

// noKill is the kill point of a row whose run is not killed.
const noKill = -1

// matrixRow is a point of the lattice. kill is how many batches the killed
// run pulls: 0 dies before the first, the input's batch count after the last.
type matrixRow struct {
	input              string
	method             Method
	depth, shards      int
	budget, quarantine bool
	source             string
	kill               int
}

func (r matrixRow) String() string {
	return fmt.Sprintf("%s/%v/depth=%d/shards=%d/budget=%t/quarantine=%t/%s/kill=%d",
		r.input, r.method, r.depth, r.shards, r.budget, r.quarantine, r.source, r.kill)
}

// config is DefaultConfig with the row's dimensions and one worker (the
// execution-only rerun takes eight).
func (r matrixRow) config() Config {
	cfg := DefaultConfig()
	cfg.Method, cfg.PipelineDepth, cfg.Shards, cfg.Parallelism = r.method, r.depth, r.shards, 1
	if r.budget {
		cfg.MemBudgetBytes = 64 << 20
	}
	if r.quarantine {
		cfg.DriftPolicy, cfg.EpochInterval = DriftQuarantine, 2
	}
	return cfg
}

// pinnedRows are the cases of the folded tests (CHANGES.md maps them).
func pinnedRows() []matrixRow {
	var rows []matrixRow
	add := func(input string, m Method, depth, shards int, source string, kill int) {
		rows = append(rows, matrixRow{input: input, method: m, depth: depth, shards: shards, source: source, kill: kill})
	}
	for _, m := range []Method{MethodELSH, MethodMinHash} {
		for _, depth := range []int{1, 2, 4} {
			for _, src := range []string{"clean", "transient", "transient+retry", "corrupt", "truncate", "mixed"} {
				add("engine", m, depth, 0, src, noKill)
			}
			add("engine", m, depth, 0, "clean", 3)
		}
		add("engine", m, 8, 0, "clean", noKill)
	}
	for _, depth := range []int{1, 4} {
		add("engine", MethodELSH, depth, 0, "clean", 0)
		add("engine", MethodELSH, depth, 0, "clean", 6)
		for _, shards := range []int{0, 2} {
			add("drift", MethodELSH, depth, shards, "clean", noKill)
			// Killed early and late: the batches after either kill train
			// new tokens.
			add("vocab", MethodELSH, depth, shards, "clean", 3)
			add("vocab", MethodELSH, depth, shards, "clean", 6)
		}
	}
	add("engine", MethodELSH, 4, 3, "transient", noKill)
	for _, kill := range []int{noKill, 1, 3, 5} {
		add("engine", MethodELSH, 4, 3, "clean", kill)
	}
	return rows
}

// sampledRows draws n rows from the whole product with a fixed seed; they
// must reach corners no pinned row does.
func (m *matrix) sampledRows(t *testing.T, n int) []matrixRow {
	rng := rand.New(rand.NewSource(28))
	pick := func(vals ...int) int { return vals[rng.Intn(len(vals))] }
	inputs := []string{"drift", "engine", "near-theta", "supernodes"}
	sources := []string{"clean", "transient", "transient+retry", "corrupt", "truncate", "mixed"}
	rows := make([]matrixRow, n)
	for i := range rows {
		rows[i] = matrixRow{
			input: inputs[rng.Intn(len(inputs))], method: Method(rng.Intn(2)),
			depth: pick(1, 2, 4, 8), shards: pick(0, 2, 3), budget: rng.Intn(2) == 1,
			quarantine: rng.Intn(2) == 1, source: sources[rng.Intn(len(sources))],
		}
		batches := len(m.inputs[rows[i].input].batches)
		rows[i].kill = pick(noKill, 0, batches/2, batches)
	}
	for _, corner := range []func(matrixRow) bool{
		func(r matrixRow) bool { return r.shards == 2 && r.budget && r.quarantine },
		func(r matrixRow) bool { return r.shards == 3 && r.budget && r.quarantine },
		func(r matrixRow) bool { return r.shards > 1 && r.budget && r.kill > 0 },
	} {
		if !slices.ContainsFunc(rows, corner) {
			t.Fatal("the sample misses a corner of the lattice")
		}
	}
	return rows
}

// matrix holds the inputs and the first outcome of every key.
type matrix struct {
	inputs map[string]matrixInput
	seen   map[string]*outcome
}

// outcome is what the runs of one key must agree on.
type outcome struct {
	name      string
	def       *schema.Def
	json, ddl []byte
	reports   []BatchReport // timings zeroed
	skipped   []SkipReport
}

// key names the runs that must agree.
func (m *matrix) key(r matrixRow, cfg Config) string {
	return fmt.Sprintf("%s %s sections=%d %s", r.input, cfg.withDefaults().fingerprint(), max(cfg.Shards, 1), matrixSources[r.source].class)
}

// source is the row's stream; it dies after kill pulls unless kill is noKill.
func (m *matrix) source(r matrixRow, kill int) pg.ErrSource {
	if kill == 0 {
		return errSourceFunc(func() (*pg.Batch, error) { return nil, pg.ErrPermanentFault })
	}
	spec := matrixSources[r.source]
	profile := spec.profile
	profile.FailAfter = max(kill, 0)
	var src pg.ErrSource = pg.AsErrSource(pg.NewSliceSource(m.inputs[r.input].batches...))
	if profile != (pg.FaultProfile{}) {
		src = pg.NewFaultSource(src, profile)
	}
	if spec.retry {
		src = pg.NewRetrySource(src, pg.RetryPolicy{Sleep: noSleep})
	}
	return src
}

// agree checks a result against the first outcome of key, or records it as
// that outcome; each shard's reports must come in batch order.
func (m *matrix) agree(t *testing.T, key, name string, res *Result) *outcome {
	t.Helper()
	o := &outcome{name: name, def: res.Def, reports: untimed(res.Reports), skipped: res.Skipped}
	o.json, o.ddl = renderDef(t, res.Def)
	next := map[int]int{}
	for _, rep := range res.Reports {
		if rep.Batch != next[rep.Shard] {
			t.Errorf("%s: shard %d report %d carries batch %d", name, rep.Shard, next[rep.Shard], rep.Batch)
		}
		next[rep.Shard]++
	}
	want, ok := m.seen[key]
	switch {
	case !ok:
		m.seen[key] = o
	case !bytes.Equal(o.json, want.json) || !bytes.Equal(o.ddl, want.ddl):
		t.Errorf("%s: schema diverges from %s\nwant %s\ngot  %s", name, want.name, want.json, o.json)
	case !reflect.DeepEqual(o.reports, want.reports) || !slices.Equal(o.skipped, want.skipped):
		t.Errorf("%s: reports or quarantines diverge from %s\nwant %+v %v\ngot  %+v %v", name, want.name, want.reports, want.skipped, o.reports, o.skipped)
	}
	return o
}

// untimed returns a copy of reports with their timings zeroed (nil for
// none, whatever the run returned).
func untimed(reports []BatchReport) (out []BatchReport) {
	for _, rep := range reports {
		rep.Load, rep.Preprocess, rep.Cluster, rep.Extract, rep.Wall = 0, 0, 0, 0, 0
		out = append(out, rep)
	}
	return out
}

// reference is the outcome of r's key: the first recorded, or that of an
// uninterrupted depth-1 run of r, over the clean source for a transient r.
func (m *matrix) reference(t *testing.T, r matrixRow) *outcome {
	r.depth, r.kill = 1, noKill
	if matrixSources[r.source].class == "clean" {
		r.source = "clean"
	}
	cfg := r.config()
	if o, ok := m.seen[m.key(r, cfg)]; ok {
		return o
	}
	res, err := Run(m.source(r, noKill), cfg, RunOptions{})
	if err != nil {
		t.Fatalf("%v: %v", r, err)
	}
	return m.agree(t, m.key(r, cfg), r.String(), res)
}

func (m *matrix) check(t *testing.T, r matrixRow) {
	cfg := r.config()
	key, level := m.key(r, cfg), m.inputs[r.input].level
	if matrixSources[r.source].class != r.source {
		m.reference(t, r) // (b): the clean run a transient row must match
	}
	// A killed row checks (e) and (f) on its killed and resumed runs.
	ck := &chainCheckpointer{t: t, name: "uninterrupted", cfg: cfg}
	var opts RunOptions
	if r.kill == noKill {
		opts.Checkpoint = ck
	}
	res, err := Run(m.source(r, noKill), cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	base := m.agree(t, key, "uninterrupted", res)
	if r.kill == noKill {
		ck.agreesWith(res)
	}
	if faults := quarantines(res.Skipped, false); matrixSources[r.source].class == "clean" && len(faults) > 0 {
		t.Errorf("a %s source quarantined %v", r.source, faults)
	}

	// (a)
	variant := cfg
	for field, set := range configSetters {
		f, _ := reflect.TypeOf(cfg).FieldByName(field)
		if c := classOf(f); c == executionOnly || c == quarantineOnly && !r.quarantine {
			set(&variant)
		}
	}
	if variant.Shards <= 1 {
		variant.Shards = 1 - variant.Shards
	}
	vres, err := Run(m.source(r, noKill), variant, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m.agree(t, key, "execution-only rerun", vres)
	if r.input == "drift" && !r.quarantine && vres.Drift.Total() == 0 {
		t.Errorf("evolve saw no drift on a drifting stream: %+v", vres.Drift)
	}

	// (b), (d)
	if r.shards > 1 {
		s := r
		s.shards = 0
		serial := m.reference(t, s)
		if diff := schema.EquivalenceDiff(serial.def, base.def, level); diff != "" {
			t.Errorf("not equivalent to %s at level %v: %s", serial.name, level, diff)
		}
		if got, want := quarantines(base.skipped, false), quarantines(serial.skipped, false); !slices.Equal(got, want) {
			t.Errorf("fault quarantines %v, %s %v", got, serial.name, want)
		}
	}

	// (c)
	if r.kill == noKill {
		return
	}
	file := &FileCheckpointer{Path: filepath.Join(t.TempDir(), "run.ck")}
	ck = &chainCheckpointer{t: t, name: "killed", cfg: cfg, file: file}
	if _, err := Run(m.source(r, r.kill), cfg, RunOptions{Checkpoint: ck}); !errors.Is(err, pg.ErrPermanentFault) {
		t.Fatalf("killed run returned %v, want the injected permanent fault", err)
	}
	state, ok, err := file.Load()
	if err != nil || r.kill == 0 && ok || r.kill > 0 && !ok && matrixSources[r.source].class == "clean" {
		t.Fatalf("after the kill: checkpoint exists %t, err %v", ok, err)
	}
	ck.name = "resumed"
	resumed, err := Run(m.source(r, noKill), cfg, RunOptions{Checkpoint: ck, Resume: state})
	if err != nil {
		t.Fatal(err)
	}
	m.agree(t, key, "resumed", resumed)
	if !reflect.DeepEqual(resumed.Drift, res.Drift) {
		t.Errorf("resumed drift summary %+v, uninterrupted %+v", resumed.Drift, res.Drift)
	}
	ck.agreesWith(resumed)
}

// quarantines returns the drift quarantines of a list, or without drift
// its fault quarantines.
func quarantines(skipped []SkipReport, drift bool) (out []SkipReport) {
	for _, s := range skipped {
		if strings.HasPrefix(s.Reason, "drift: ") == drift {
			out = append(out, s)
		}
	}
	return out
}

// chainCheckpointer checks S_i ⊑ S_{i+1} over every checkpoint a run saves:
// each section's type fingerprint must contain the previous checkpoint's.
// It keeps the last state and, with file set, persists every state there.
type chainCheckpointer struct {
	t    *testing.T
	name string
	cfg  Config
	file *FileCheckpointer
	prev []map[string][]string
	last []byte
}

// Save implements Checkpointer.
func (c *chainCheckpointer) Save(state []byte) error {
	schemas, err := DecodeCheckpointSchemas(state, c.cfg)
	if err != nil {
		return err
	}
	fps := make([]map[string][]string, len(schemas))
	for i, s := range schemas {
		if fps[i] = schema.TypeFingerprint(s); c.prev != nil && !schema.FingerprintSubset(c.prev[i], fps[i]) {
			c.t.Errorf("%s: checkpoint section %d lost a type or property\nbefore %v\nafter  %v", c.name, i, c.prev[i], fps[i])
		}
	}
	c.prev, c.last = fps, state
	if c.file != nil {
		return c.file.Save(state)
	}
	return nil
}

// agreesWith checks that the last checkpoint holds res's types (a fleet's
// sections folded) and restores its drift quarantines.
func (c *chainCheckpointer) agreesWith(res *Result) {
	cfg := c.cfg.withDefaults()
	pipes, clock := newPipelines(cfg), newEpochClock(cfg, obs.NewInstr(nil))
	if _, _, err := restore(c.last, cfg, pipes, clock); err != nil {
		c.t.Fatalf("%s: last checkpoint: %v", c.name, err)
	}
	schemas := make([]*schema.Schema, len(pipes))
	for i, p := range pipes {
		schemas[i] = p.schema
	}
	last := schemas[0]
	if len(schemas) > 1 {
		last = MergeShardSchemas(schemas, cfg)
	}
	if got, want := schema.TypeFingerprint(last), schema.TypeFingerprint(res.Schema); !reflect.DeepEqual(got, want) {
		c.t.Errorf("%s: last checkpoint holds types %v, the live schema %v", c.name, got, want)
	}
	if want := quarantines(res.Skipped, true); !slices.Equal(clock.skips(nil), want) {
		c.t.Errorf("%s: last checkpoint restores drift quarantines %v, the run had %v", c.name, clock.skips(nil), want)
	}
}
