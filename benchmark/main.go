// Command benchmark is the repository's performance benchmark. It runs one
// workload — an input stream generated from -seed and encoded once to the
// wire format — through the discovery engine or the schema service, checks
// every rep's output byte for byte against a reference run, and prints its
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// telemetry off; with -trace 1 one extra traced rep writes a Chrome trace
// and the metrics are the per-layer ones. Run it from the repository root
// through run.sh, which builds it:
//
//	bash benchmark/run.sh -workload ldbc-serial -seed 1 -seconds 10 -trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pghive/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options configure one benchmark run.
type options struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	traceDir string
	// scale multiplies the workload's input size (1 is the benchmark's).
	scale float64
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed the workload's input is generated from")
	seconds := fs.Float64("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 adds a traced rep, writes its Chrome trace and reports the per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "traces"), "directory the Chrome traces are written to")
	scale := fs.Float64("scale", 1, "input size multiplier; values below 1 give a quick, unrepresentative run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 || *scale <= 0 || *scale > 1 {
		fmt.Fprintf(stderr, "benchmark: want -workload one of %s, -trace 0 or 1, -seconds >= 0, 0 < -scale <= 1\n", strings.Join(names, ", "))
		return 2
	}
	o := options{
		seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, traceDir: *traceDir, scale: *scale,
	}
	res, err := runWorkload(w, o, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintf(stderr, "benchmark: %s: output differs from the reference\n", w.name)
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload sets the workload up, runs a warm-up rep, measures reps for
// o.seconds (at least one), and with o.trace one traced rep. Operations
// are the batches handed to the program and the reader's requests.
func runWorkload(w *workload, o options, out, log io.Writer) (result, error) {
	host := hostInfo()
	fmt.Fprintf(out, "# workload=%s seed=%d %s\n", w.name, o.seed, host)
	res := result{Correct: true, Metrics: map[string]metricValue{}}

	// Set up several times: setup_s is the median, and every set-up must
	// produce the same stream and reference.
	var p prepared
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		pi, err := w.prepare(o.seed, o.scale)
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i == 0 {
			p = pi
		} else if !bytes.Equal(pi.st.data, p.st.data) || !bytes.Equal(pi.ref, p.ref) {
			res.Correct = false
			fmt.Fprintf(log, "set-up %d: stream or reference differs from set-up 0\n", i)
		}
	}
	decodeAllocs, err := decodeAllocsPerElem(p.st)
	if err != nil {
		return res, err
	}
	fmt.Fprintf(out, "# input: %d batches, %d elements, %d wire bytes; reference %d bytes\n",
		p.st.batches, p.st.elements, len(p.st.data), len(p.ref))

	check := func(label string, r repResult) {
		if !bytes.Equal(r.output, p.ref) {
			res.Correct = false
			fmt.Fprintf(log, "%s: output (%d bytes) differs from the reference (%d bytes)\n", label, len(r.output), len(p.ref))
		}
	}
	account := func(label string, r repResult) {
		check(label, r)
		res.Attempted += r.batches
		res.Failed += r.failed
		if r.reader != nil {
			res.Attempted += r.reader.reads
		}
	}
	warm, err := w.rep(p.st, nil, nil)
	if err != nil {
		return res, fmt.Errorf("warm-up: %w", err)
	}
	check("warm-up", warm)

	var eps, heap []float64
	var served serveStats
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < o.seconds; rep++ {
		r, err := w.rep(p.st, nil, nil)
		if err != nil {
			return res, fmt.Errorf("rep %d: %w", rep, err)
		}
		account(fmt.Sprintf("rep %d", rep), r)
		eps = append(eps, float64(p.st.elements)/r.wall.Seconds())
		heap = append(heap, r.heapMB)
		served.add(r)
	}

	e2e := map[string]summary{
		"elements_per_s":   summarize(eps),
		"retained_heap_mb": summarize(heap),
		"setup_s":          summarize(setups),
	}
	for _, m := range endToEndMetrics {
		s := e2e[m.name]
		fmt.Fprintf(out, "%-28s %14.4f %-8s median of %d, q1 %.4f, q3 %.4f\n", m.name, s.median, m.unit, s.n, s.q1, s.q3)
		if !o.trace {
			res.Metrics[m.name] = metricValue{s.median, m.unit}
		}
	}
	if w.serve {
		served.print(out, w.epochLag)
	}
	if !o.trace {
		return res, nil
	}

	// The traced rep: telemetry into a registry plus the span recorder.
	runID := fmt.Sprintf("%s/seed-%d/traced", w.name, o.seed)
	reg, sink := obs.NewRegistry(), newBenchSink(runID)
	r, err := w.rep(p.st, reg, sink)
	if err != nil {
		return res, fmt.Errorf("traced rep: %w", err)
	}
	account("traced rep", r)
	spans := map[string]spanTotal{}
	fmt.Fprintf(out, "# traced rep %s: spans by name (count, total ms, self ms)\n", runID)
	for _, t := range sink.totals() {
		spans[t.name] = t
		fmt.Fprintf(out, "#   %-24s %7d %12.3f %12.3f\n", t.name, t.count, ms(t.total), ms(t.self))
	}
	layers, err := layerMetrics(w, r, reg.Snapshot(), spans, p.st.elements, decodeAllocs, e2e["elements_per_s"].median)
	if err != nil {
		return res, err
	}
	for _, m := range perLayerMetrics {
		v := layers[m.name]
		fmt.Fprintf(out, "%-34s %16.4f %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed-%d.json", w.name, o.seed))
	meta := map[string]any{"workload": w.name, "seed": o.seed, "run": runID, "host": host}
	if err := sink.writeChromeTrace(path, meta); err != nil {
		return res, err
	}
	fmt.Fprintf(out, "# trace: %s\n", path)
	return res, nil
}

// serveStats pools the reader's observations over the measured reps.
type serveStats struct {
	reads, lags, renders []float64
	maxLate              time.Duration
	hits, count          int
}

func (s *serveStats) add(r repResult) {
	if rd := r.reader; rd != nil {
		s.reads = append(s.reads, rd.latencies...)
		s.renders = append(s.renders, rd.renderMicros...)
		s.maxLate = max(s.maxLate, rd.maxLate)
		s.hits += rd.hits
		s.count += rd.reads
	}
	s.lags = append(s.lags, r.epochLag...)
}

// print reports the reader's view of a serve workload. Timings are the
// median and the tail percentile (the highest with at least ten samples
// beyond it), with their count.
func (s *serveStats) print(out io.Writer, epochLag bool) {
	q, v := tail(s.reads)
	fmt.Fprintf(out, "# serve: read latency from due time: p50 %.1f us, p%g %.1f us (n=%d); hit ratio %.4f\n",
		summarize(s.reads).median, q*100, v, len(s.reads), float64(s.hits)/float64(max(s.count, 1)))
	fmt.Fprintf(out, "# serve: generator ran at most %.3f ms late; render on miss p50 %.1f us (n=%d)\n",
		ms(s.maxLate), summarize(s.renders).median, len(s.renders))
	if epochLag {
		q, v := tail(s.lags)
		fmt.Fprintf(out, "# serve: epoch lag p50 %.3f ms, p%g %.3f ms (n=%d)\n", summarize(s.lags).median, q*100, v, len(s.lags))
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// decodeAllocsPerElem decodes the whole stream once, alone, and counts the
// heap allocations per element.
func decodeAllocsPerElem(st stream) (float64, error) {
	src := newWireSource(st, nil, noParent)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for {
		b, err := src.Next()
		if err != nil {
			return 0, fmt.Errorf("decode pass: %w", err)
		}
		if b == nil {
			break
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(st.elements), nil
}

// hostInfo names what the numbers were measured on.
func hostInfo() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
