package main

import (
	"fmt"
	"math"
	"time"

	"pghive/internal/obs"
)

// metric is one metric the benchmark reports. BENCHMARK.json declares the
// same names, units and directions; TestBenchmarkJSONMatches keeps the two
// in step.
type metric struct {
	name, unit, better string
	// bound is how far an end-to-end metric's median may worsen, as a share
	// of the parent's, before a change counts as a regression.
	bound float64
}

// endToEndMetrics are measured with telemetry off, as medians over the
// run's reps (setup_s over its set-ups).
var endToEndMetrics = []metric{
	{"elements_per_s", "elem/s", "higher", 0.25},
	{"retained_heap_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics come from the traced rep. Each is defined on every
// workload: a mechanism a workload does not use reads 0 (its share of wall
// time, its bytes or its hit ratio), never a made-up time.
var perLayerMetrics = []metric{
	{name: "pg.decode_ns_per_elem", unit: "ns/elem", better: "lower"},
	{name: "pg.decode_allocs_per_elem", unit: "allocs/elem", better: "lower"},
	{name: "core.load_wait_ns_per_elem", unit: "ns/elem", better: "lower"},
	{name: "core.queue_wait_ns_per_elem", unit: "ns/elem", better: "lower"},
	{name: "core.overlap", unit: "ratio", better: "higher"},
	{name: "core.checkpoint_bytes_per_save", unit: "bytes", better: "lower"},
	{name: "core.checkpoint_share", unit: "ratio", better: "lower"},
	{name: "core.shard_skew", unit: "ratio", better: "lower"},
	{name: "core.merge_share", unit: "ratio", better: "lower"},
	{name: "core.epoch_share", unit: "ratio", better: "lower"},
	{name: "vectorize.preprocess_ns_per_elem", unit: "ns/elem", better: "lower"},
	{name: "vectorize.embed_reuse_ratio", unit: "ratio", better: "higher"},
	{name: "lsh.cluster_ns_per_elem", unit: "ns/elem", better: "lower"},
	{name: "lsh.clusters_per_batch", unit: "count", better: "lower"},
	{name: "lsh.prefix_dot_hit_ratio", unit: "ratio", better: "higher"},
	{name: "lsh.record_sig_hit_ratio", unit: "ratio", better: "higher"},
	{name: "schema.extract_ns_per_elem", unit: "ns/elem", better: "lower"},
	{name: "schema.merged_ratio", unit: "ratio", better: "higher"},
	{name: "schema.evidence_bytes", unit: "bytes", better: "lower"},
	{name: "infer.finalize_ms", unit: "ms", better: "lower"},
	{name: "serialize.json_ms", unit: "ms", better: "lower"},
	{name: "serialize.json_bytes", unit: "bytes", better: "lower"},
	{name: "serve.read_hit_ratio", unit: "ratio", better: "higher"},
	{name: "serve.epochs_published", unit: "count", better: "higher"},
	{name: "bench.self_share", unit: "ratio", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
}

// layerMetrics derives the per-layer metrics of one traced rep from the
// engine's batch reports, the telemetry registry and the recorded spans
// (totals by name).
// decodeAllocs comes from the isolated decode pass at set-up; untracedEPS
// is the median elements_per_s of the same run's untraced reps.
func layerMetrics(w *workload, r repResult, snap *obs.Snapshot, spans map[string]spanTotal, elements int, decodeAllocs, untracedEPS float64) (map[string]float64, error) {
	res := r.res
	if res == nil || len(res.Reports) == 0 {
		return nil, fmt.Errorf("traced rep produced no result")
	}
	var load, pre, clu, ext, queue time.Duration
	clusters := 0
	perShard := map[int]int{}
	for _, b := range res.Reports {
		load += b.Load
		pre += b.Preprocess
		clu += b.Cluster
		ext += b.Extract
		if q := b.Wall - b.Load - b.Preprocess - b.Cluster - b.Extract; q > 0 {
			queue += q
		}
		clusters += b.NodeClusters + b.EdgeClusters
		perShard[b.Shard] += b.Nodes + b.Edges
	}
	perElem := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(elements) }
	share := func(s obs.Stage) float64 { return float64(snap.Stage(s).TotalNs) / float64(r.wall.Nanoseconds()) }
	hitRatio := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	largest := 0
	for _, n := range perShard {
		largest = max(largest, n)
	}
	var ckptBytes float64
	if n := snap.Counter(obs.CtrCheckpoints); n > 0 {
		ckptBytes = float64(snap.Counter(obs.CtrCheckpointBytes)) / float64(n)
	}
	top := "bench.discover"
	var readHits, epochs float64
	if w.serve {
		top = "bench.ingest"
		readHits = hitRatio(uint64(r.reader.hits), uint64(r.reader.reads-r.reader.hits))
		epochs = float64(len(r.srv.Epochs()))
	}
	tracedEPS := float64(elements) / r.wall.Seconds()

	m := map[string]float64{
		"pg.decode_ns_per_elem":            perElem(spans["bench.decode"].total),
		"pg.decode_allocs_per_elem":        decodeAllocs,
		"core.load_wait_ns_per_elem":       perElem(load),
		"core.queue_wait_ns_per_elem":      perElem(queue),
		"core.overlap":                     float64(load+pre+clu+ext) / float64(res.Discovery),
		"core.checkpoint_bytes_per_save":   ckptBytes,
		"core.checkpoint_share":            share(obs.StageCheckpoint),
		"core.shard_skew":                  float64(largest) * float64(max(1, w.cfg.Shards)) / float64(elements),
		"core.merge_share":                 share(obs.StageMerge),
		"core.epoch_share":                 share(obs.StageEpoch),
		"vectorize.preprocess_ns_per_elem": perElem(pre),
		"vectorize.embed_reuse_ratio":      hitRatio(snap.Counter(obs.CtrEmbedTokensReused), snap.Counter(obs.CtrEmbedTokensTrained)),
		"lsh.cluster_ns_per_elem":          perElem(clu),
		"lsh.clusters_per_batch":           float64(clusters) / float64(len(res.Reports)),
		"lsh.prefix_dot_hit_ratio":         hitRatio(snap.Counter(obs.CtrPrefixDotHits), snap.Counter(obs.CtrPrefixDotsComputed)),
		"lsh.record_sig_hit_ratio":         hitRatio(snap.Counter(obs.CtrRecordSigHits), snap.Counter(obs.CtrRecordSigsComputed)),
		"schema.extract_ns_per_elem":       perElem(ext),
		"schema.merged_ratio":              hitRatio(snap.Counter(obs.CtrTypesMerged), snap.Counter(obs.CtrTypesCreated)),
		"schema.evidence_bytes":            float64(res.Schema.EvidenceBytes()),
		"infer.finalize_ms":                float64(snap.Stage(obs.StagePostprocess).TotalNs) / 1e6,
		"serialize.json_ms":                float64(r.jsonDur.Nanoseconds()) / 1e6,
		"serialize.json_bytes":             float64(len(r.output)),
		"serve.read_hit_ratio":             readHits,
		"serve.epochs_published":           epochs,
		"bench.self_share":                 float64(spans[top].self) / float64(spans[top].total),
		"bench.trace_overhead_pct":         (untracedEPS - tracedEPS) / untracedEPS * 100,
	}
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", k)
		}
	}
	return m, nil
}
