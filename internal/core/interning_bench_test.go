package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"pghive/internal/pg"
	"pghive/internal/schema"
)

// BenchmarkCandidatesInterned measures the candidate-build + extract hot
// path (Algorithm 2's evidence folding): one pre-clustered batch is turned
// into candidate types and merged into a fresh schema on every iteration,
// with the pipeline's sampler warm (past SampleMin, so every property
// observation exercises the sampling decision). This is the path the
// interned symbol core optimizes; CI pins its allocs/op against
// regressions.
func BenchmarkCandidatesInterned(b *testing.B) {
	g := engineGraph(b, 4000)
	batch := g.Snapshot()
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	cfg.SampleMin = 10 // warm the sampler quickly: the steady state is the frac path
	p := NewPipeline(cfg)
	st := p.preprocess(batch, 0)
	c := p.cluster(st)

	// Warm up: intern the batch and push sampler counters past SampleMin.
	p.extract(c)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodeCands := p.nodeCandidates(c.b, c.nodeClusters)
		edgeCands := p.edgeCandidates(c.b, c.edgeClusters)
		s := benchSchema(p)
		schema.MergeTypes(s, schema.NodeKind, nodeCands, p.cfg.Theta)
		schema.MergeTypes(s, schema.EdgeKind, edgeCands, p.cfg.Theta)
	}
}

// BenchmarkPreprocessCluster measures the preprocess and cluster stages on
// one batch in the steady state (the embedding session already holds the
// batch's label tokens), serially: engineGraph's few, heavily repeated
// element shapes, and a batch of 20,000 nodes that each carry a random
// subset of 16 keys, so that almost every node has its own shape (the shape
// index's worst case). CI bounds the first sub-benchmark's allocs/op.
func BenchmarkPreprocessCluster(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	distinct := &pg.Batch{}
	for i := 0; i < 20000; i++ {
		props := pg.Properties{}
		for k := 0; k < 16; k++ {
			if rng.Intn(2) == 0 {
				props[fmt.Sprintf("key%02d", k)] = pg.Int(int64(i))
			}
		}
		distinct.Nodes = append(distinct.Nodes, pg.NodeRecord{ID: pg.ID(i), Labels: []string{"Node"}, Props: props})
	}
	for _, c := range []struct {
		name  string
		batch *pg.Batch
	}{
		{"engine", engineGraph(b, 4000).Snapshot()},
		{"distinct-shapes", distinct},
	} {
		b.Run(c.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Parallelism = 1
			p := NewPipeline(cfg)
			p.cluster(p.preprocess(c.batch, 0))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.cluster(p.preprocess(c.batch, i+1))
			}
		})
	}
}

// benchSchema returns a fresh extraction target compatible with the
// pipeline's candidates: it shares the pipeline's symbol table so the
// candidates (typed against it) can merge in.
func benchSchema(p *Pipeline) *schema.Schema {
	return schema.NewSchemaWith(p.schema.Tab)
}

// BenchmarkExtractStream measures steady-state heap while discovering a
// multi-batch stream, reporting bytes of live evidence heap after the run
// (the quantity the interned degree tables shrink).
func BenchmarkExtractStream(b *testing.B) {
	g := engineGraph(b, 20000)
	batches := g.SplitRandom(8, 11)
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	cfg.PipelineDepth = 1
	b.ReportAllocs()
	b.ResetTimer()
	var res *Result
	for i := 0; i < b.N; i++ {
		res = Discover(pg.NewSliceSource(batches...), cfg)
	}
	b.StopTimer()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc), "live-heap-bytes")
	_ = res
}
