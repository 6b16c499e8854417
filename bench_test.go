// Benchmarks regenerating the paper's tables and figures (one per
// experiment, on reduced dataset scales so the suite stays minutes-long),
// plus micro-benchmarks for the pipeline stages. Run the full-scale
// harness with: go run ./cmd/pghive-bench -scale 20000
package pghive_test

import (
	"bytes"
	"io"
	"testing"
	"time"

	"pghive"
	"pghive/internal/bench"
	"pghive/internal/datagen"
	"pghive/internal/embed"
	"pghive/internal/lsh"
)

// benchSettings keeps experiment benchmarks small: two structurally
// distinct datasets at 400 nodes.
func benchSettings() bench.Settings {
	return bench.Settings{Scale: 400, Seed: 1, Datasets: []string{"POLE", "MB6"}}
}

func BenchmarkTable2DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := bench.RunTable2(io.Discard, benchSettings()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3Significance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := bench.RunFig3(io.Discard, benchSettings()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4Quality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig4(io.Discard, benchSettings()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5Runtime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig5(io.Discard, benchSettings()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Heatmap(b *testing.B) {
	s := benchSettings()
	s.Datasets = []string{"POLE"}
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig6(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Incremental(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig7(io.Discard, benchSettings()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8SamplingError(b *testing.B) {
	s := benchSettings()
	s.Datasets = []string{"ICIJ"}
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunFig8(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks: single-method discovery per dataset profile.

func benchDataset(name string, scale int) *datagen.Dataset {
	return datagen.Generate(datagen.ProfileByName(name), datagen.Options{Nodes: scale, Seed: 1})
}

func benchmarkDiscover(b *testing.B, dataset string, method pghive.Method) {
	b.Helper()
	ds := benchDataset(dataset, 1000)
	cfg := pghive.DefaultConfig()
	cfg.Method = method
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := pghive.Discover(ds.Graph, cfg)
		if len(res.Def.Nodes) == 0 {
			b.Fatal("no types discovered")
		}
	}
}

// latentSource simulates a batch source with per-batch load latency (disk
// read, network fetch, parse) — the case the engine's prefetch stage hides.
type latentSource struct {
	batches []*pghive.Batch
	latency time.Duration
	next    int
}

func (s *latentSource) Next() *pghive.Batch {
	if s.next >= len(s.batches) {
		return nil
	}
	time.Sleep(s.latency)
	b := s.batches[s.next]
	s.next++
	return b
}

// BenchmarkDiscover contrasts the serial engine (PipelineDepth=1, legacy
// per-record vector allocation) with the overlapped engine (default depth,
// prefetch + stage overlap + arena vectors) on a multi-batch stream. Both
// produce byte-identical schemas; see internal/core/engine_test.go.
//
// The mem scenario streams from memory: overlapping compute with compute
// needs spare cores, so the win there scales with GOMAXPROCS; the alloc
// reduction from the arena shows at any core count. The io scenario adds
// per-batch source latency comparable to one batch's compute: the serial
// engine pays load + compute in sequence, the overlapped engine hides the
// loads behind compute even on a single core.
func BenchmarkDiscover(b *testing.B) {
	ds := benchDataset("LDBC", 2500)
	batches := ds.Graph.SplitRandom(8, 1)
	for _, scenario := range []struct {
		name    string
		latency time.Duration
	}{
		{"mem", 0},
		{"io", 10 * time.Millisecond},
	} {
		for _, bm := range []struct {
			name  string
			depth int
		}{
			{"serial", 1},
			{"overlapped", pghive.DefaultPipelineDepth},
		} {
			b.Run(scenario.name+"/"+bm.name, func(b *testing.B) {
				cfg := pghive.DefaultConfig()
				cfg.PipelineDepth = bm.depth
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var src pghive.Source = pghive.NewSliceSource(batches...)
					if scenario.latency > 0 {
						src = &latentSource{batches: batches, latency: scenario.latency}
					}
					res := pghive.DiscoverStream(src, cfg)
					if len(res.Def.Nodes) == 0 {
						b.Fatal("no types discovered")
					}
				}
			})
		}
	}
}

// memCheckpointer keeps only the latest checkpoint in memory, isolating the
// encoding cost of per-batch checkpointing from filesystem noise.
type memCheckpointer struct{ state []byte }

func (m *memCheckpointer) Save(state []byte) error {
	m.state = append(m.state[:0], state...)
	return nil
}

// BenchmarkDiscoverFaults measures the cost of the fault-tolerance layer on
// an 8-batch stream: the FT drain loop itself (clean), seeded transient
// faults absorbed by retry with backoff computed but not slept (fault10/50),
// and per-batch checkpointing of the full pipeline state (checkpoint).
// Every scenario must finalize the same schema as the plain engine;
// internal/core's TestConfigMatrix checks that identity.
func BenchmarkDiscoverFaults(b *testing.B) {
	ds := benchDataset("LDBC", 2500)
	batches := ds.Graph.SplitRandom(8, 1)
	cfg := pghive.DefaultConfig()
	for _, scenario := range []struct {
		name       string
		rate       float64
		checkpoint bool
	}{
		{"clean", 0, false},
		{"fault10", 0.10, false},
		{"fault50", 0.50, false},
		{"checkpoint", 0, true},
	} {
		b.Run(scenario.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src := pghive.AsErrSource(pghive.NewSliceSource(batches...))
				if scenario.rate > 0 {
					fault := pghive.NewFaultSource(src,
						pghive.FaultProfile{TransientRate: scenario.rate, Seed: 1})
					src = pghive.NewRetrySource(fault, pghive.RetryPolicy{
						MaxAttempts: 20,
						Sleep:       func(time.Duration) {}, // count, don't wait
					})
				}
				var opts pghive.RunOptions
				if scenario.checkpoint {
					opts.Checkpoint = &memCheckpointer{}
				}
				res, err := pghive.Run(src, cfg, opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Def.Nodes) == 0 {
					b.Fatal("no types discovered")
				}
			}
		})
	}
}

// BenchmarkDiscoverTelemetry measures the observability layer's end-to-end
// cost on an 8-batch stream: no sink (the provably-free default), a
// Registry aggregating every event, and a Registry fanned out with a
// Chrome-trace writer. The instrumentation sites are per-batch and
// per-cluster, never per-element, so the deltas sit inside run-to-run
// jitter; the disabled emit path is separately pinned to 0 allocs by
// BenchmarkInstrDisabled in internal/obs.
func BenchmarkDiscoverTelemetry(b *testing.B) {
	ds := benchDataset("LDBC", 2500)
	batches := ds.Graph.SplitRandom(8, 1)
	for _, scenario := range []string{"none", "registry", "registry+trace"} {
		b.Run(scenario, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := pghive.DefaultConfig()
				var reg *pghive.TelemetryRegistry
				var tw *pghive.TraceWriter
				switch scenario {
				case "registry":
					reg = pghive.NewTelemetryRegistry()
					cfg.Telemetry = reg
				case "registry+trace":
					reg = pghive.NewTelemetryRegistry()
					tw = pghive.NewTraceWriter(io.Discard)
					cfg.Telemetry = pghive.TelemetryMulti(reg, tw)
				}
				res := pghive.DiscoverStream(pghive.NewSliceSource(batches...), cfg)
				if tw != nil {
					if err := tw.Close(); err != nil {
						b.Fatal(err)
					}
				}
				if len(res.Def.Nodes) == 0 {
					b.Fatal("no types discovered")
				}
				if reg != nil && res.Telemetry.Counter(pghive.CtrBatches) != uint64(len(res.Reports)) {
					b.Fatal("telemetry snapshot inconsistent")
				}
			}
		})
	}
}

func BenchmarkDiscoverELSHPole(b *testing.B)    { benchmarkDiscover(b, "POLE", pghive.MethodELSH) }
func BenchmarkDiscoverELSHLdbc(b *testing.B)    { benchmarkDiscover(b, "LDBC", pghive.MethodELSH) }
func BenchmarkDiscoverELSHIyp(b *testing.B)     { benchmarkDiscover(b, "IYP", pghive.MethodELSH) }
func BenchmarkDiscoverMinHashPole(b *testing.B) { benchmarkDiscover(b, "POLE", pghive.MethodMinHash) }
func BenchmarkDiscoverMinHashLdbc(b *testing.B) { benchmarkDiscover(b, "LDBC", pghive.MethodMinHash) }

func BenchmarkBaselineGMM(b *testing.B) {
	ds := benchDataset("POLE", 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := bench.RunMethod(ds, bench.GMM, bench.Settings{Seed: 1})
		if !out.OK {
			b.Fatal("GMM failed")
		}
	}
}

func BenchmarkBaselineSchemI(b *testing.B) {
	ds := benchDataset("POLE", 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := bench.RunMethod(ds, bench.SchemI, bench.Settings{Seed: 1})
		if !out.OK {
			b.Fatal("SchemI failed")
		}
	}
}

func BenchmarkWord2VecTrain(b *testing.B) {
	var corpus [][]string
	for i := 0; i < 200; i++ {
		corpus = append(corpus,
			[]string{"Person&Student", "Person", "Student"},
			[]string{"Neuron&mb6", "Neuron", "mb6"},
		)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		embed.Train(corpus, embed.DefaultConfig())
	}
}

func BenchmarkELSHSignature(b *testing.B) {
	fam := lsh.NewELSH(64, 2.0, 25, 1)
	vec := make([]float64, 64)
	for i := range vec {
		vec[i] = float64(i%7) * 0.3
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fam.Signature(vec)
	}
}

func BenchmarkMinHashSignature(b *testing.B) {
	mh := lsh.NewMinHash(25, 1)
	set := make([]uint64, 20)
	for i := range set {
		set[i] = uint64(i) * 0x9e3779b9
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mh.Signature(set)
	}
}

func BenchmarkIncrementalBatch(b *testing.B) {
	ds := benchDataset("LDBC", 2000)
	batches := ds.Graph.SplitRandom(10, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pghive.NewPipeline(pghive.DefaultConfig())
		for _, batch := range batches {
			p.ProcessBatch(batch)
		}
	}
}

func BenchmarkAblation(b *testing.B) {
	s := benchSettings()
	s.Datasets = []string{"MB6"}
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunAblation(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetricsSuite(b *testing.B) {
	s := benchSettings()
	s.Datasets = []string{"POLE"}
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunMetrics(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidate(b *testing.B) {
	ds := benchDataset("POLE", 2000)
	res := pghive.Discover(ds.Graph, pghive.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pghive.ValidateGraph(ds.Graph, res.Def, pghive.Loose)
	}
}

func BenchmarkQueryPath(b *testing.B) {
	ds := benchDataset("POLE", 2000)
	q := "MATCH (c:Crime)-[:INVESTIGATED_BY]->(o:Officer) RETURN count(*)"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pghive.RunQuery(ds.Graph, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryWriteRead(b *testing.B) {
	ds := benchDataset("LDBC", 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := pghive.WriteGraphBinary(&buf, ds.Graph); err != nil {
			b.Fatal(err)
		}
		if _, err := pghive.ReadGraphBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
