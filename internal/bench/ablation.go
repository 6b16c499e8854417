package bench

import (
	"fmt"
	"io"

	"pghive/internal/core"
)

// AblationResult is one (knob, setting, dataset) quality measurement.
type AblationResult struct {
	Knob    string
	Setting string
	Dataset string
	NodeF1  float64
	EdgeF1  float64
}

// RunAblation measures the design choices DESIGN.md calls out, on two
// structurally distinct datasets (the heterogeneous ICIJ and the
// multi-label MB6) at 20 % noise and 50 % label availability — the regime
// where the knobs matter:
//
//   - label-weight: embedding block scale 1/2/4 (default 2). Too low lets
//     property noise mix differently-labeled clusters in ELSH.
//   - theta: Jaccard merge threshold 0.5/0.7/0.9/0.99 (default 0.9).
//     Lower merges unlabeled fragments more aggressively (recall) at the
//     risk of fusing types (precision).
//   - minhash-rows: 0 (full AND signature, default) vs banded 2/4 rows.
//     Banding raises recall per cluster and lowers precision.
//   - label-corpus: distinct set-token embeddings (default) vs semantic
//     multi-label co-occurrence training; the semantic corpus attracts
//     overlapping label sets, which merges types defined by distinct sets.
//   - method: the ELSH/MinHash headline comparison at this noise point.
func RunAblation(w io.Writer, s Settings) ([]AblationResult, error) {
	s = s.withDefaults()
	if len(s.Datasets) == 0 {
		s.Datasets = []string{"ICIJ", "MB6"}
	}
	cache := newDatasetCache(s)
	var results []AblationResult

	record := func(tw io.Writer, knob, setting string, dataset string, out Outcome) {
		results = append(results, AblationResult{
			Knob: knob, Setting: setting, Dataset: dataset,
			NodeF1: out.Node.Micro, EdgeF1: out.Edge.Micro,
		})
		fmt.Fprintf(tw, "  %-14s %-10s %-8s node=%.3f edge=%.3f\n",
			knob, setting, dataset, out.Node.Micro, out.Edge.Micro)
	}

	fmt.Fprintln(w, "Ablation: design-choice sweeps at 20% noise, 50% label availability")
	for _, p := range s.profiles() {
		ds := cache.noisy(p, 0.2, 0.5)

		for _, weight := range []float64{1, 2, 4} {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.LabelWeight = weight
			record(w, "label-weight", fmt.Sprintf("%.0f", weight), p.Name, RunPGHive(ds, cfg))
		}
		for _, theta := range []float64{0.5, 0.7, 0.9, 0.99} {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Theta = theta
			record(w, "theta", fmt.Sprintf("%.2f", theta), p.Name, RunPGHive(ds, cfg))
		}
		for _, rows := range []int{0, 2, 4} {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Method = core.MethodMinHash
			cfg.MinHashRows = rows
			setting := "full"
			if rows > 0 {
				setting = fmt.Sprintf("band-%d", rows)
			}
			record(w, "minhash-rows", setting, p.Name, RunPGHive(ds, cfg))
		}
		for _, semantic := range []bool{false, true} {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.SemanticLabels = semantic
			setting := "distinct"
			if semantic {
				setting = "semantic"
			}
			record(w, "label-corpus", setting, p.Name, RunPGHive(ds, cfg))
		}
		for _, m := range []core.Method{core.MethodELSH, core.MethodMinHash} {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			cfg.Method = m
			record(w, "method", m.String(), p.Name, RunPGHive(ds, cfg))
		}
	}
	return results, nil
}
