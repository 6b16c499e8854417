package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// program must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatches(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	var declared []metric
	for _, m := range b.EndToEnd {
		declared = append(declared, metric{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range b.PerLayer {
		declared = append(declared, metric{name: m.Name, unit: m.Unit, better: m.Better})
	}
	program := append(append([]metric(nil), endToEndMetrics...), perLayerMetrics...)
	if len(declared) != len(program) {
		t.Fatalf("BENCHMARK.json declares %d metrics, the program %d", len(declared), len(program))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for i := range program {
		if declared[i] != program[i] {
			t.Errorf("metric %d: BENCHMARK.json has %+v, the program %+v", i, declared[i], program[i])
		}
		if !name.MatchString(program[i].name) {
			t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", program[i].name)
		}
	}
}

// runTiny runs the benchmark's command line on a shrunken input and
// returns its exit code and parsed last line.
func runTiny(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-seed", "1", "-seconds", "0", "-scale", "0.01"}, args...), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if code == 0 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the result: %v\n%s", err, stdout.String())
		}
	}
	return code, res, stdout.String() + stderr.String()
}

// TestSmoke runs every workload once untraced and once traced: each must
// pass its correctness gate, emit exactly the metrics BENCHMARK.json
// declares with their units, and write a trace with a span in every layer
// the workload calls into.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, trace := range []string{"0", "1"} {
				code, res, out := runTiny(t, "-workload", w.name, "-trace", trace, "-trace-dir", dir)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("-trace %s: exit %d, result %+v\n%s", trace, code, res, out)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range b.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range b.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("-trace %s: %d metrics, want %d", trace, len(res.Metrics), len(want))
				}
				for name, unit := range want {
					if got, ok := res.Metrics[name]; !ok || got.Unit != unit {
						t.Errorf("-trace %s: metric %s = %+v, want unit %s", trace, name, got, unit)
					}
				}
			}
			checkTrace(t, filepath.Join(dir, w.name+"-seed-1.json"), w)
		})
	}
}

func checkTrace(t *testing.T, path string, w *workload) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Args          map[string]any
		}
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	layers, names := map[string]bool{}, map[string]bool{}
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		layers[e.Cat] = true
		names[e.Name] = true
		if e.Args["run"] != w.name+"/seed-1/traced" {
			t.Errorf("span %s has run %v", e.Name, e.Args["run"])
		}
	}
	wantLayers := []string{"pg", "core", "vectorize", "lsh", "schema", "infer", "serialize"}
	wantNames := []string{"bench.decode", "bench.json"}
	if w.serve {
		wantLayers = append(wantLayers, "serve")
		wantNames = append(wantNames, "bench.ingest", "bench.read")
	} else {
		wantNames = append(wantNames, "bench.discover")
	}
	for _, l := range wantLayers {
		if !layers[l] {
			t.Errorf("trace has no span in layer %s (layers %v)", l, layers)
		}
	}
	for _, n := range wantNames {
		if !names[n] {
			t.Errorf("trace has no %s span", n)
		}
	}
}

func TestWrongReferenceFails(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	w := *workloadByName("ldbc-serial")
	w.reference = func(stream) ([]byte, error) { return []byte("{}\n"), nil }
	workloads = []*workload{&w}
	if code, _, out := runTiny(t, "-workload", w.name); code == 0 {
		t.Fatalf("exit 0 with a wrong reference\n%s", out)
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	if code, _, _ := runTiny(t, "-workload", "no-such-workload"); code == 0 {
		t.Fatal("exit 0 for an unknown workload")
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantQ float64
	}{{19, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		values := make([]float64, c.n)
		for i := range values {
			values[i] = float64(c.n - i) // unsorted on purpose
		}
		q, v := tail(values)
		if q != c.wantQ {
			t.Errorf("n=%d: reported p%g, want p%g", c.n, q*100, c.wantQ*100)
		}
		if beyond := c.n - int(v); c.wantQ > 0.5 && beyond < 10 {
			t.Errorf("n=%d: p%g = %g has %d samples beyond it", c.n, q*100, v, beyond)
		}
	}
}

func TestSelfTime(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	parent := span{start: at(0), end: at(100)}
	children := []span{
		{start: at(10), end: at(30)},
		{start: at(20), end: at(40)},  // overlaps the first: counts once
		{start: at(90), end: at(120)}, // only its part inside the parent counts
		{start: at(50), end: at(50)},
	}
	if got := selfTime(parent, children); got != 60*time.Millisecond {
		t.Fatalf("self time %v, want 60ms", got)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Fatalf("self time without children %v, want 100ms", got)
	}
}

// TestReaderTimesFromDueTime stalls the handler once for 50ms: the stalled
// request and the ones queued behind it must count the stall in their
// latency, and the generator must report running late.
func TestReaderTimesFromDueTime(t *testing.T) {
	const stallAt, stall, total = 5, 50 * time.Millisecond, 30
	var calls atomic.Int64
	stop := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if n == stallAt {
			time.Sleep(stall)
		}
		if n == total {
			close(stop)
		}
		w.Header().Set("X-PGHive-Epoch", "1")
		w.Header().Set("X-PGHive-Cache", "hit")
		_, _ = w.Write([]byte(`{}`))
	})
	rd := newReader(h, time.Millisecond, nil)
	rd.run(stop)
	if rd.reads != total || rd.failed != 0 {
		t.Fatalf("reads %d failed %d, want %d and 0", rd.reads, rd.failed, total)
	}
	us := func(d time.Duration) float64 { return float64(d.Microseconds()) }
	if got := rd.latencies[stallAt-1]; got < us(stall) {
		t.Errorf("stalled request latency %.0fus, want >= %v", got, stall)
	}
	if got := rd.latencies[stallAt]; got < us(stall-2*time.Millisecond) {
		t.Errorf("request queued behind the stall: latency %.0fus, want >= %v", got, stall-2*time.Millisecond)
	}
	if rd.maxLate < stall-2*time.Millisecond {
		t.Errorf("generator lateness %v, want >= %v", rd.maxLate, stall-2*time.Millisecond)
	}
}

// TestReaderCountsFailures: a non-200 status, a body that is not JSON and
// an epoch going backwards each count as a failed read.
func TestReaderCountsFailures(t *testing.T) {
	responses := []struct {
		code  int
		epoch int
		body  string
	}{{200, 2, `{}`}, {500, 2, `{}`}, {200, 2, `{`}, {200, 1, `{}`}, {200, 3, `{"a":1}`}}
	var calls atomic.Int64
	stop := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp := responses[calls.Add(1)-1]
		if int(calls.Load()) == len(responses) {
			close(stop)
		}
		w.Header().Set("X-PGHive-Epoch", strconv.Itoa(resp.epoch))
		w.WriteHeader(resp.code)
		_, _ = w.Write([]byte(resp.body))
	})
	rd := newReader(h, time.Millisecond, nil)
	rd.run(stop)
	if rd.reads != len(responses) || rd.failed != 3 {
		t.Fatalf("reads %d failed %d, want %d and 3", rd.reads, rd.failed, len(responses))
	}
	if _, ok := rd.firstSeen[3]; !ok {
		t.Errorf("epoch 3 not recorded as seen: %v", rd.firstSeen)
	}
}
