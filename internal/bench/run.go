package bench

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// Experiment is one entry of the pghive-bench experiment table.
type Experiment struct {
	// Name is the identifier `pghive-bench -exp` accepts.
	Name string
	// CSV is the file the experiment's rows go to under -csvdir ("" for
	// experiments that only print a table).
	CSV string
	// run prints the experiment's table to w and returns its CSV header
	// and rows.
	run func(w io.Writer, s Settings) (header []string, rows [][]string, err error)
}

// Experiments lists every experiment in the order RunAll runs them.
var Experiments = []Experiment{
	{"table1", "", func(w io.Writer, s Settings) ([]string, [][]string, error) {
		return nil, nil, RunTable1(w, s)
	}},
	{"table2", "", func(w io.Writer, s Settings) ([]string, [][]string, error) {
		return nil, nil, RunTable2(w, s)
	}},
	{"fig3", "fig3_ranks.csv", func(w io.Writer, s Settings) ([]string, [][]string, error) {
		nodeRanks, edgeRanks, err := RunFig3(w, s)
		if err != nil {
			return nil, nil, err
		}
		var rows [][]string
		for _, k := range []struct {
			kind  string
			ranks *Fig3Result
		}{{"nodes", nodeRanks}, {"edges", edgeRanks}} {
			for i, m := range k.ranks.Methods {
				rows = append(rows, []string{k.kind, m.String(), f(k.ranks.AvgRanks[i]), f(k.ranks.CD)})
			}
		}
		return []string{"kind", "method", "avg_rank", "cd"}, rows, nil
	}},
	{"fig4", "fig4_quality.csv", perPoint(RunFig4,
		[]string{"dataset", "method", "label_availability", "noise", "ok", "node_f1", "edge_f1"},
		func(c Fig4Cell) []string {
			return []string{c.Dataset, c.Method.String(), f(c.LabelAvail), f(c.Noise),
				strconv.FormatBool(c.OK), f(c.NodeF1), f(c.EdgeF1)}
		})},
	{"fig5", "fig5_runtime.csv", perPoint(RunFig5,
		[]string{"dataset", "method", "noise", "ok", "elapsed_us"},
		func(c Fig5Cell) []string {
			return []string{c.Dataset, c.Method.String(), f(c.Noise),
				strconv.FormatBool(c.OK), i64(c.Elapsed.Microseconds())}
		})},
	{"fig6", "fig6_heatmap.csv", func(w io.Writer, s Settings) ([]string, [][]string, error) {
		grids, err := RunFig6(w, s)
		var rows [][]string
		for _, g := range grids {
			for ai, alpha := range g.Alphas {
				for ti, tables := range g.Tables {
					rows = append(rows, []string{g.Dataset, f(alpha), strconv.Itoa(tables),
						f(g.NodeF1[ai][ti]), f(g.EdgeF1[ai][ti]),
						f(g.AdaptiveAlpha), strconv.Itoa(g.AdaptiveTables)})
				}
			}
		}
		return []string{"dataset", "alpha", "tables", "node_f1", "edge_f1", "adaptive_alpha", "adaptive_tables"}, rows, err
	}},
	{"fig7", "fig7_incremental.csv", func(w io.Writer, s Settings) ([]string, [][]string, error) {
		series, err := RunFig7(w, s)
		var rows [][]string
		for _, sr := range series {
			for bi, d := range sr.PerBatch {
				rows = append(rows, []string{sr.Dataset, sr.Method.String(), strconv.Itoa(bi + 1), i64(d.Microseconds())})
			}
		}
		return []string{"dataset", "method", "batch", "elapsed_us"}, rows, err
	}},
	{"fig8", "fig8_sampling.csv", perPoint(RunFig8,
		[]string{"dataset", "method", "bin_0_005", "bin_005_010", "bin_010_020", "bin_020_up", "properties"},
		func(r Fig8Row) []string {
			fr := r.Bins.Fractions()
			return []string{r.Dataset, r.Method.String(),
				f(fr[0]), f(fr[1]), f(fr[2]), f(fr[3]), strconv.Itoa(r.Bins.Total)}
		})},
	{"ablation", "ablation.csv", perPoint(RunAblation,
		[]string{"knob", "setting", "dataset", "node_f1", "edge_f1"},
		func(r AblationResult) []string {
			return []string{r.Knob, r.Setting, r.Dataset, f(r.NodeF1), f(r.EdgeF1)}
		})},
	{"metrics", "metrics.csv", perPoint(RunMetrics,
		[]string{"dataset", "method", "ok", "f1", "macro_f1", "ari", "nmi"},
		func(r MetricsRow) []string {
			return []string{r.Dataset, r.Method.String(), strconv.FormatBool(r.OK),
				f(r.F1), f(r.MacroF1), f(r.ARI), f(r.NMI)}
		})},
}

// perPoint adapts an experiment that returns one CSV row per point.
func perPoint[T any](run func(io.Writer, Settings) ([]T, error), header []string, row func(T) []string) func(io.Writer, Settings) ([]string, [][]string, error) {
	return func(w io.Writer, s Settings) ([]string, [][]string, error) {
		points, err := run(w, s)
		rows := make([][]string, len(points))
		for i, p := range points {
			rows[i] = row(p)
		}
		return header, rows, err
	}
}

// ExperimentNames returns the experiment identifiers in table order.
func ExperimentNames() []string {
	out := make([]string, len(Experiments))
	for i, e := range Experiments {
		out[i] = e.Name
	}
	return out
}

// Run runs the experiment, printing its table to w. When dir is non-empty
// and the experiment has a CSV, it also writes the rows to dir/e.CSV. It
// fails before running on a Settings.Datasets name that is not a profile.
func (e Experiment) Run(w io.Writer, dir string, s Settings) error {
	if err := s.checkDatasets(); err != nil {
		return err
	}
	header, rows, err := e.run(w, s)
	if err != nil || dir == "" || e.CSV == "" {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	file, err := os.Create(filepath.Join(dir, e.CSV))
	if err != nil {
		return err
	}
	cw := csv.NewWriter(file)
	if err := cw.Write(header); err != nil {
		file.Close()
		return err
	}
	if err := cw.WriteAll(rows); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// RunAll runs every experiment in table order (see Experiment.Run).
func RunAll(w io.Writer, dir string, s Settings) error {
	if err := s.checkDatasets(); err != nil {
		return err
	}
	for _, e := range Experiments {
		if err := e.Run(w, dir, s); err != nil {
			return fmt.Errorf("bench: experiment %s: %w", e.Name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// f formats a float CSV field.
func f(x float64) string {
	return fmt.Sprintf("%.4f", x)
}

// i64 formats an integer CSV field.
func i64(x int64) string {
	return strconv.FormatInt(x, 10)
}
