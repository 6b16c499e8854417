package bench

import (
	"fmt"
	"io"

	"pghive/internal/core"
	"pghive/internal/lsh"
)

// Fig6Grid holds one dataset's (T, α) heatmap.
type Fig6Grid struct {
	Dataset string
	Alphas  []float64
	Tables  []int
	// NodeF1 and EdgeF1 are indexed [alpha][table].
	NodeF1 [][]float64
	EdgeF1 [][]float64
	// AdaptiveAlpha / AdaptiveTables are the parameters the adaptive
	// strategy picked (the red × in the paper's heatmap), with its scores.
	AdaptiveAlpha  float64
	AdaptiveTables int
	AdaptiveNodeF1 float64
	AdaptiveEdgeF1 float64
}

// Fig6Alphas and Fig6Tables define the sweep grid.
var (
	Fig6Alphas = []float64{0.5, 0.8, 1.0, 1.5, 2.0}
	Fig6Tables = []int{15, 20, 25, 30, 35}
)

// RunFig6 reproduces the parameter heatmaps (Figure 6): ELSH F1* over a
// (T, α) grid at 0 % noise and 100 % labels, against the adaptive choice.
// Expected shape: the adaptive point sits near the grid optimum; very
// small buckets (low α) over-separate (still fine after merging), large
// α and T merge distinct patterns and lower F1*.
func RunFig6(w io.Writer, s Settings) ([]Fig6Grid, error) {
	s = s.withDefaults()
	cache := newDatasetCache(s)
	var grids []Fig6Grid

	fmt.Fprintln(w, "Figure 6: ELSH F1* heatmaps over (T, alpha) vs the adaptive choice (0% noise, 100% labels)")
	for _, p := range s.profiles() {
		ds := cache.get(p)

		// Probe run: adaptive parameters and their scores.
		probeCfg := core.DefaultConfig()
		probeCfg.Seed = s.Seed
		probe := RunPGHive(ds, probeCfg)
		if len(probe.Reports) == 0 {
			continue
		}
		nodeParams := probe.Reports[0].NodeParams
		edgeParams := probe.Reports[0].EdgeParams

		grid := Fig6Grid{
			Dataset:        p.Name,
			Alphas:         Fig6Alphas,
			Tables:         Fig6Tables,
			AdaptiveAlpha:  nodeParams.Alpha,
			AdaptiveTables: nodeParams.Tables,
			AdaptiveNodeF1: probe.Node.Micro,
			AdaptiveEdgeF1: probe.Edge.Micro,
		}

		for _, alpha := range Fig6Alphas {
			var nodeRow, edgeRow []float64
			for _, tables := range Fig6Tables {
				cfg := core.DefaultConfig()
				cfg.Seed = s.Seed
				cfg.NodeParams = &lsh.Params{
					Mu: nodeParams.Mu, BBase: nodeParams.BBase, Alpha: alpha,
					Bucket: nodeParams.BBase * alpha, Tables: tables,
				}
				cfg.EdgeParams = &lsh.Params{
					Mu: edgeParams.Mu, BBase: edgeParams.BBase, Alpha: alpha,
					Bucket: edgeParams.BBase * alpha, Tables: tables,
				}
				out := RunPGHive(ds, cfg)
				nodeRow = append(nodeRow, out.Node.Micro)
				edgeRow = append(edgeRow, out.Edge.Micro)
			}
			grid.NodeF1 = append(grid.NodeF1, nodeRow)
			grid.EdgeF1 = append(grid.EdgeF1, edgeRow)
		}
		grids = append(grids, grid)

		fmt.Fprintf(w, "  %s (adaptive: alpha=%.2f T=%d, nodeF1*=%.3f edgeF1*=%.3f):\n",
			p.Name, grid.AdaptiveAlpha, grid.AdaptiveTables, grid.AdaptiveNodeF1, grid.AdaptiveEdgeF1)
		for part, m := range map[string][][]float64{"nodes": grid.NodeF1, "edges": grid.EdgeF1} {
			tw := newTable(w)
			header := "    " + part + " alpha\\T"
			for _, t := range Fig6Tables {
				header += fmt.Sprintf("\t%d", t)
			}
			fmt.Fprintln(tw, header)
			for ai, alpha := range Fig6Alphas {
				row := fmt.Sprintf("    %.1f", alpha)
				for ti := range Fig6Tables {
					row += fmt.Sprintf("\t%.3f", m[ai][ti])
				}
				fmt.Fprintln(tw, row)
			}
			if err := tw.Flush(); err != nil {
				return nil, err
			}
		}
	}
	return grids, nil
}
