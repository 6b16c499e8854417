package bench

import (
	"fmt"
	"io"

	"pghive/internal/core"
	"pghive/internal/eval"
	"pghive/internal/infer"
	"pghive/internal/pg"
	"pghive/internal/schema"
)

// Fig8Row is one dataset/method sampling-error histogram.
type Fig8Row struct {
	Dataset string
	Method  MethodID
	Bins    eval.ErrorBins
}

// RunFig8 reproduces the data-type sampling-error analysis (Figure 8):
// for each dataset and both PG-HIVE variants, the per-property error of
// sample-based data-type inference against the full scan, grouped into the
// paper's bins and normalized per dataset. Expected shape: most properties
// in the lowest bin; outliers concentrated on the heterogeneous datasets
// (ICIJ, CORD19, IYP) whose mixed-kind values a small sample misses.
func RunFig8(w io.Writer, s Settings) ([]Fig8Row, error) {
	s = s.withDefaults()
	cache := newDatasetCache(s)
	var rows []Fig8Row

	fmt.Fprintln(w, "Figure 8: Data-type sampling-error distribution (fraction of properties per error bin)")
	tw := newTable(w)
	header := "  dataset\tmethod"
	for _, l := range eval.BinLabels {
		header += "\t" + l
	}
	fmt.Fprintln(tw, header+"\tprops")
	for _, p := range s.profiles() {
		ds := cache.get(p)
		for _, m := range []MethodID{ELSH, MinHash} {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			if m == MinHash {
				cfg.Method = core.MethodMinHash
			}
			res := core.Discover(pg.NewSliceSource(ds.Graph.Snapshot()), cfg)
			bins := samplingErrorBins(res.Schema)
			rows = append(rows, Fig8Row{Dataset: p.Name, Method: m, Bins: bins})

			row := fmt.Sprintf("  %s\t%s", p.Name, m)
			for _, f := range bins.Fractions() {
				row += fmt.Sprintf("\t%.3f", f)
			}
			fmt.Fprintf(tw, "%s\t%d\n", row, bins.Total)
		}
	}
	return rows, tw.Flush()
}

// samplingErrorBins computes the per-property sampling errors over every
// type in the schema (each type's property is one observation, as each
// type infers its own data types).
func samplingErrorBins(s *schema.Schema) eval.ErrorBins {
	var bins eval.ErrorBins
	for _, kind := range []schema.ElementKind{schema.NodeKind, schema.EdgeKind} {
		for _, t := range s.Types(kind) {
			t.EachProp(func(_ string, stat *schema.PropStat) {
				bins.Add(infer.SamplingError(stat))
			})
		}
	}
	return bins
}
