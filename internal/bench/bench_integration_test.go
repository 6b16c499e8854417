package bench

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pghive/internal/datagen"
)

// smallSettings keeps integration runs fast.
func smallSettings(datasets ...string) Settings {
	return Settings{Scale: 400, Seed: 1, Datasets: datasets}
}

func TestRunTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTable1(&buf, smallSettings()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SchemI", "GMMSchema", "PG-HIVE", "Incremental"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestRunTable2(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTable2(&buf, smallSettings("POLE", "LDBC")); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "POLE") || !strings.Contains(out, "LDBC") {
		t.Errorf("Table 2 missing datasets:\n%s", out)
	}
	if strings.Contains(out, "IYP") {
		t.Error("dataset filter not applied")
	}
}

func TestRunMethodOutcomes(t *testing.T) {
	s := smallSettings()
	cache := newDatasetCache(s)
	ds := cache.get(profileOrSkip(t, s, "POLE"))

	for m := ELSH; m < numMethods; m++ {
		out := RunMethod(ds, m, s)
		if !out.OK {
			t.Fatalf("%v should run on a clean dataset", m)
		}
		if out.Node.Micro < 0.9 {
			t.Errorf("%v node F1* = %.3f on clean POLE, want ≥ 0.9", m, out.Node.Micro)
		}
		if m == GMM && out.HasEdges {
			t.Error("GMMSchema must not emit edge types")
		}
		if (m == ELSH || m == MinHash || m == SchemI) && !out.HasEdges {
			t.Errorf("%v should emit edge types", m)
		}
	}
}

func TestBaselinesFailWithoutLabels(t *testing.T) {
	s := smallSettings()
	cache := newDatasetCache(s)
	p := profileOrSkip(t, s, "POLE")
	ds := cache.noisy(p, 0, 0.5)
	for _, m := range []MethodID{GMM, SchemI} {
		if out := RunMethod(ds, m, s); out.OK {
			t.Errorf("%v should fail at 50%% label availability", m)
		}
	}
	for _, m := range []MethodID{ELSH, MinHash} {
		if out := RunMethod(ds, m, s); !out.OK || out.Node.Micro < 0.8 {
			t.Errorf("%v should still work at 50%% labels (got OK=%v F1=%.3f)", m, out.OK, out.Node.Micro)
		}
	}
}

func profileOrSkip(t *testing.T, s Settings, name string) *datagen.Profile {
	t.Helper()
	for _, p := range s.profiles() {
		if p.Name == name {
			return p
		}
	}
	t.Skipf("profile %s not found", name)
	return nil
}

func TestRunFig3ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("significance sweep is slow")
	}
	var buf bytes.Buffer
	nodeRes, edgeRes, err := RunFig3(&buf, smallSettings("POLE", "MB6"))
	if err != nil {
		t.Fatal(err)
	}
	if nodeRes.Cases != 10 {
		t.Fatalf("cases = %d, want 10 (2 datasets x 5 noise levels)", nodeRes.Cases)
	}
	// Expected shape: PG-HIVE variants rank at least as well as both
	// baselines on nodes.
	rank := map[MethodID]float64{}
	for i, m := range nodeRes.Methods {
		rank[m] = nodeRes.AvgRanks[i]
	}
	best := rank[ELSH]
	if rank[MinHash] < best {
		best = rank[MinHash]
	}
	if rank[GMM] < best || rank[SchemI] < best {
		t.Errorf("a baseline outranks both PG-HIVE variants: %v", rank)
	}
	if edgeRes.CD <= 0 {
		t.Error("edge CD should be positive")
	}
}

func TestRunFig4CellsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("quality sweep is slow")
	}
	var buf bytes.Buffer
	cells, err := RunFig4(&buf, smallSettings("POLE"))
	if err != nil {
		t.Fatal(err)
	}
	// 100% labels: 4 methods × 5 noise; 50%/0%: 2 methods × 5 noise each.
	want := 4*5 + 2*5 + 2*5
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.OK && (c.NodeF1 < 0 || c.NodeF1 > 1) {
			t.Errorf("cell %+v has out-of-range F1", c)
		}
	}
}

func TestRunFig5TimesPositive(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep is slow")
	}
	var buf bytes.Buffer
	cells, err := RunFig5(&buf, smallSettings("MB6"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.OK && c.Elapsed <= 0 {
			t.Errorf("cell %+v has non-positive time", c)
		}
	}
}

func TestRunFig6AdaptiveNearOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("grid sweep is slow")
	}
	var buf bytes.Buffer
	grids, err := RunFig6(&buf, smallSettings("POLE"))
	if err != nil {
		t.Fatal(err)
	}
	if len(grids) != 1 {
		t.Fatalf("got %d grids, want 1", len(grids))
	}
	g := grids[0]
	bestNode := 0.0
	for _, row := range g.NodeF1 {
		for _, f1 := range row {
			if f1 > bestNode {
				bestNode = f1
			}
		}
	}
	// The paper's claim: the adaptive choice is close to the grid optimum.
	if g.AdaptiveNodeF1 < bestNode-0.1 {
		t.Errorf("adaptive node F1* %.3f too far below grid best %.3f", g.AdaptiveNodeF1, bestNode)
	}
}

func TestRunFig7PerBatchTimes(t *testing.T) {
	if testing.Short() {
		t.Skip("incremental sweep is slow")
	}
	var buf bytes.Buffer
	series, err := RunFig7(&buf, smallSettings("POLE"))
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("got %d series, want 2 methods", len(series))
	}
	for _, s := range series {
		if len(s.PerBatch) != Fig7Batches {
			t.Errorf("%v: %d batches, want %d", s.Method, len(s.PerBatch), Fig7Batches)
		}
	}
}

func TestRunFig8BinsNormalized(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling sweep is slow")
	}
	var buf bytes.Buffer
	rows, err := RunFig8(&buf, smallSettings("ICIJ"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Bins.Total == 0 {
			t.Errorf("%s/%v: no properties evaluated", r.Dataset, r.Method)
			continue
		}
		sum := 0.0
		for _, f := range r.Bins.Fractions() {
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%s/%v: fractions sum to %v", r.Dataset, r.Method, sum)
		}
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	want := []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "ablation", "metrics"}
	got := ExperimentNames()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("experiments = %v, want %v", got, want)
	}
	csvs := map[string]bool{}
	for _, e := range Experiments {
		if (e.CSV == "") != (e.Name == "table1" || e.Name == "table2") {
			t.Errorf("%s: CSV file %q", e.Name, e.CSV)
		}
		if e.CSV != "" && csvs[e.CSV] {
			t.Errorf("%s: CSV file %q shared with another experiment", e.Name, e.CSV)
		}
		csvs[e.CSV] = true
	}
}

func TestRunMetricsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("metric sweep is slow")
	}
	var buf bytes.Buffer
	rows, err := RunMetrics(&buf, smallSettings("POLE"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != int(numMethods) {
		t.Fatalf("got %d rows, want %d", len(rows), numMethods)
	}
	for _, r := range rows {
		if !r.OK {
			t.Errorf("%v not OK on clean POLE", r.Method)
			continue
		}
		for name, v := range map[string]float64{"F1": r.F1, "ARI": r.ARI, "NMI": r.NMI} {
			if v < 0 || v > 1.0001 {
				t.Errorf("%v %s = %v out of range", r.Method, name, v)
			}
		}
	}
}

func TestRunAblationSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep is slow")
	}
	var buf bytes.Buffer
	results, err := RunAblation(&buf, smallSettings("POLE"))
	if err != nil {
		t.Fatal(err)
	}
	knobs := map[string]int{}
	for _, r := range results {
		knobs[r.Knob]++
		if r.NodeF1 < 0 || r.NodeF1 > 1 {
			t.Errorf("ablation %s/%s F1 out of range: %v", r.Knob, r.Setting, r.NodeF1)
		}
	}
	want := map[string]int{"label-weight": 3, "theta": 4, "minhash-rows": 3, "label-corpus": 2, "method": 2}
	for k, n := range want {
		if knobs[k] != n {
			t.Errorf("knob %s has %d settings, want %d", k, knobs[k], n)
		}
	}
}

func TestRunAllTinyPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness is slow")
	}
	// Exercise RunAll end-to-end on one tiny dataset: every experiment
	// prints its table and writes its CSV.
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := RunAll(&buf, dir, Settings{Scale: 150, Seed: 1, Datasets: []string{"POLE"}}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 1", "Table 2", "Figure 3", "Figure 4", "Figure 5", "Figure 6", "Figure 7", "Figure 8", "Ablation", "Supplementary"} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output missing %q", want)
		}
	}
	checkCSVs(t, dir, "fig3_ranks.csv", "fig4_quality.csv", "fig5_runtime.csv",
		"fig6_heatmap.csv", "fig7_incremental.csv", "fig8_sampling.csv",
		"ablation.csv", "metrics.csv")
}

// checkCSVs asserts dir holds exactly the named CSVs, each with a header
// and at least one data row.
func checkCSVs(t *testing.T, dir string, names ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(names) {
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		t.Errorf("%s holds %v, want %v", dir, got, names)
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("missing %s: %v", name, err)
			continue
		}
		if lines := strings.Count(string(data), "\n"); lines < 2 {
			t.Errorf("%s has %d lines, want header + data", name, lines)
		}
	}
}

// TestWriteCSVs: a single experiment run with a CSV directory writes only
// its own CSV, and an experiment without one writes nothing.
func TestWriteCSVs(t *testing.T) {
	s := Settings{Scale: 150, Seed: 1, Datasets: []string{"POLE"}}
	for _, e := range Experiments {
		if e.Name != "table1" && e.Name != "metrics" {
			continue
		}
		dir := t.TempDir()
		var buf bytes.Buffer
		if err := e.Run(&buf, dir, s); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s printed no table", e.Name)
		}
		if e.CSV == "" {
			checkCSVs(t, dir)
		} else {
			checkCSVs(t, dir, e.CSV)
		}
	}
}

// TestUnknownDatasetRejected: a Datasets name that is not a profile fails
// Experiment.Run and RunAll before anything runs, naming the bad name and
// the valid ones, instead of printing an empty table.
func TestUnknownDatasetRejected(t *testing.T) {
	s := Settings{Scale: 150, Seed: 1, Datasets: []string{"POLE", "pole"}}
	for _, c := range []struct {
		name string
		run  func(io.Writer) error
	}{
		{"Run", func(w io.Writer) error { return Experiments[0].Run(w, "", s) }},
		{"RunAll", func(w io.Writer) error { return RunAll(w, "", s) }},
	} {
		var buf bytes.Buffer
		err := c.run(&buf)
		if err == nil {
			t.Fatalf("%s accepted unknown dataset \"pole\"", c.name)
		}
		for _, want := range []string{`"pole"`, "POLE", "LDBC", "IYP"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s error %q does not name %s", c.name, err, want)
			}
		}
		if buf.Len() != 0 {
			t.Errorf("%s printed %q before rejecting the dataset", c.name, buf.String())
		}
	}
}
