package core

import (
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
		ExtractTypes(s, schema.NodeKind, nodeCands, p.cfg.Theta)
		ExtractTypes(s, schema.EdgeKind, edgeCands, p.cfg.Theta)
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
