package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pghive/internal/obs"
)

// span is one timed call. The benchmark records its own spans around each
// call it makes into a layer; the program's stage spans arrive through the
// obs.Sink interface and are parented to the benchmark span that made the
// call.
type span struct {
	id, parent int // parent 0 is the run root
	name       string
	layer      string // Chrome-trace category: pg, core, vectorize, lsh, schema, infer, serialize, serve, bench
	start, end time.Time
	pid, tid   int
	batch      int
	elements   int
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// Trace rows: the benchmark's own spans on pid 1, one thread per kind of
// call; the engine's stage spans on pid 2 (unsharded) or 3+shard, one
// thread per pipeline-depth slot.
const (
	pidBench  = 1
	pidEngine = 2
	tidCall   = 1 // bench.discover / bench.ingest / bench.json
	tidDecode = 2 // bench.decode, called from the engine's load stage
	tidReader = 3 // bench.read
	noParent  = 0
	unsharded = -1
)

// stageLayer names the package each engine stage's work lives in; the
// other stages (load, checkpoint, merge, validate, epoch, and any added
// later) run in core.
var stageLayer = map[obs.Stage]string{
	obs.StagePreprocess:  "vectorize",
	obs.StageCluster:     "lsh",
	obs.StageExtract:     "schema",
	obs.StagePostprocess: "infer",
}

// benchSink keeps every span of one traced rep in memory: the program's
// stage spans (it is the obs.Sink attached to the run) and the benchmark's
// own. A nil *benchSink records nothing, so untraced reps share the code.
// Safe for concurrent use: the engine emits from several goroutines.
type benchSink struct {
	run string

	mu     sync.Mutex
	spans  []span
	lastID int
	// call is the benchmark span enclosing the current call into the
	// program; stage spans are its children.
	call int
}

func newBenchSink(run string) *benchSink { return &benchSink{run: run} }

// record stores a finished span; a zero id reserves a fresh one.
func (b *benchSink) record(s span) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.id == 0 {
		b.lastID++
		s.id = b.lastID
	}
	b.spans = append(b.spans, s)
}

// benchSpan records one of the benchmark's own spans.
func (b *benchSink) benchSpan(id, parent int, name, layer string, tid int, start, end time.Time, elements int) {
	b.record(span{id: id, parent: parent, name: name, layer: layer, start: start, end: end,
		pid: pidBench, tid: tid, batch: -1, elements: elements})
}

// enter reserves the ID of the benchmark span about to call into the
// program, so the program's stage spans become its children; the span
// itself is recorded when the call returns.
func (b *benchSink) enter() int {
	if b == nil {
		return noParent
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastID++
	b.call = b.lastID
	return b.call
}

func (b *benchSink) stage(shard int, s obs.Span) {
	layer, ok := stageLayer[s.Stage]
	if !ok {
		layer = "core"
	}
	b.mu.Lock()
	parent := b.call
	b.mu.Unlock()
	pid := pidEngine
	if shard != unsharded {
		pid = pidEngine + 1 + shard
	}
	b.record(span{parent: parent, name: layer + "." + s.Stage.String(), layer: layer,
		start: s.Start, end: s.Start.Add(s.Duration), pid: pid, tid: s.Slot,
		batch: s.Batch, elements: s.Elements})
}

// Span implements obs.Sink.
func (b *benchSink) Span(s obs.Span) { b.stage(unsharded, s) }

// ShardSpan implements obs.ShardObserver, keeping each shard on its own row.
func (b *benchSink) ShardSpan(shard int, s obs.Span) { b.stage(shard, s) }

// Add implements obs.Sink; counters are read from the registry instead.
func (b *benchSink) Add(obs.Counter, uint64) {}

// Observe implements obs.Sink; histograms are read from the registry instead.
func (b *benchSink) Observe(obs.Hist, uint64) {}

// ShardObserve implements obs.ShardObserver.
func (b *benchSink) ShardObserve(int, obs.Hist, uint64) {}

// selfTime is a span's duration minus the part of its interval that its
// children cover; overlapping children count once, and child time outside
// the parent's interval does not count.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Time }
	var ivs []iv
	for _, c := range children {
		lo, hi := c.start, c.end
		if lo.Before(parent.start) {
			lo = parent.start
		}
		if hi.After(parent.end) {
			hi = parent.end
		}
		if hi.After(lo) {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo.Before(ivs[j].lo) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo.After(cur.hi):
			covered += cur.hi.Sub(cur.lo)
			cur = v
		case v.hi.After(cur.hi):
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi.Sub(cur.lo)
	}
	return parent.dur() - covered
}

// spanTotal aggregates the spans of one name: count, summed duration and
// summed self time.
type spanTotal struct {
	name        string
	count       int
	total, self time.Duration
}

// totals aggregates the recorded spans by name, sorted by name.
func (b *benchSink) totals() []spanTotal {
	children := map[int][]span{}
	for _, s := range b.spans {
		children[s.parent] = append(children[s.parent], s)
	}
	byName := map[string]*spanTotal{}
	var out []*spanTotal
	for _, s := range b.spans {
		t := byName[s.name]
		if t == nil {
			t = &spanTotal{name: s.name}
			byName[s.name] = t
			out = append(out, t)
		}
		t.count++
		t.total += s.dur()
		t.self += selfTime(s, children[s.id])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	res := make([]spanTotal, len(out))
	for i, t := range out {
		res[i] = *t
	}
	return res
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as one Chrome-trace JSON object, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open directly.
// Timestamps are microseconds from the earliest span.
func (b *benchSink) writeChromeTrace(path string, meta map[string]any) error {
	var base time.Time
	for i, s := range b.spans {
		if i == 0 || s.start.Before(base) {
			base = s.start
		}
	}
	events := []traceEvent{
		metaEvent("process_name", pidBench, 0, "benchmark"),
		metaEvent("thread_name", pidBench, tidCall, "calls"),
		metaEvent("thread_name", pidBench, tidDecode, "decode"),
		metaEvent("thread_name", pidBench, tidReader, "reader"),
	}
	named := map[int]bool{}
	for _, s := range b.spans {
		if s.pid >= pidEngine && !named[s.pid] {
			named[s.pid] = true
			name := "engine"
			if s.pid > pidEngine {
				name = fmt.Sprintf("shard %d", s.pid-pidEngine-1)
			}
			events = append(events, metaEvent("process_name", s.pid, 0, name))
		}
		events = append(events, traceEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts:  float64(s.start.Sub(base).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: s.pid, Tid: s.tid,
			Args: map[string]any{"id": s.id, "parent": s.parent, "run": b.run,
				"batch": s.batch, "elements": s.elements},
		})
	}
	data, err := json.Marshal(struct {
		TraceEvents     []traceEvent   `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}{events, "ms", meta})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("create trace directory: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

func metaEvent(kind string, pid, tid int, name string) traceEvent {
	return traceEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}}
}
