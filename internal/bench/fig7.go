package bench

import (
	"fmt"
	"io"
	"time"

	"pghive/internal/core"
	"pghive/internal/pg"
)

// Fig7Series holds one method's per-batch incremental runtimes on one
// dataset.
type Fig7Series struct {
	Dataset string
	Method  MethodID
	// PerBatch is the processing time of each of the 10 batches.
	PerBatch []time.Duration
}

// Fig7Batches is the paper's batch count for the incremental experiment.
const Fig7Batches = 10

// RunFig7 reproduces the incremental experiment (Figure 7): each dataset
// is split into 10 random batches, processed incrementally by both PG-HIVE
// variants, and the per-batch times are reported. Expected shape: roughly
// flat per-batch times — each batch pays only its own clustering plus a
// merge against the accumulated (small) schema, never a recomputation.
func RunFig7(w io.Writer, s Settings) ([]Fig7Series, error) {
	s = s.withDefaults()
	cache := newDatasetCache(s)
	var series []Fig7Series

	fmt.Fprintf(w, "Figure 7: Incremental execution time per batch (ms), %d random batches\n", Fig7Batches)
	for _, p := range s.profiles() {
		ds := cache.get(p)
		batches := ds.Graph.SplitRandom(Fig7Batches, s.Seed)
		fmt.Fprintf(w, "  %s:\n", p.Name)
		tw := newTable(w)
		header := "    method"
		for i := 1; i <= Fig7Batches; i++ {
			header += fmt.Sprintf("\tb%d", i)
		}
		fmt.Fprintln(tw, header)
		for _, m := range []MethodID{ELSH, MinHash} {
			cfg := core.DefaultConfig()
			cfg.Seed = s.Seed
			if m == MinHash {
				cfg.Method = core.MethodMinHash
			}
			pipe := core.NewPipeline(cfg)
			sr := Fig7Series{Dataset: p.Name, Method: m}
			row := "    " + m.String()
			for _, b := range batches {
				report := pipe.ProcessBatch(copyBatch(b))
				sr.PerBatch = append(sr.PerBatch, report.Total())
				row += "\t" + ms(report.Total())
			}
			fmt.Fprintln(tw, row)
			series = append(series, sr)
		}
		if err := tw.Flush(); err != nil {
			return nil, err
		}
	}
	return series, nil
}

// copyBatch shields the cached split from any downstream mutation.
func copyBatch(b *pg.Batch) *pg.Batch {
	out := &pg.Batch{
		Nodes: make([]pg.NodeRecord, len(b.Nodes)),
		Edges: make([]pg.EdgeRecord, len(b.Edges)),
	}
	copy(out.Nodes, b.Nodes)
	copy(out.Edges, b.Edges)
	return out
}
