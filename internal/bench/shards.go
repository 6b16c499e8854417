package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"pghive/internal/core"
	"pghive/internal/datagen"
	"pghive/internal/eval"
	"pghive/internal/pg"
)

// ShardPoint is one sharded-discovery measurement.
type ShardPoint struct {
	Dataset string
	Method  MethodID
	// Shards is the fleet size (1 = the serial pipeline, bypassing merge).
	Shards int
	Nodes  int
	Edges  int
	// Elapsed is the discovery wall clock (drain + cross-shard merge,
	// excluding post-processing).
	Elapsed time.Duration
	// Speedup is the 1-shard elapsed over this point's elapsed.
	Speedup float64
	NodeF1  float64
	// GoMaxProcs and NumCPU record the host parallelism the point ran
	// under — a 1-CPU host cannot show wall-clock scaling regardless of
	// shard count, so the curve is only meaningful alongside these.
	GoMaxProcs int
	NumCPU     int
}

// ShardCounts is the default fleet-size sweep.
var ShardCounts = []int{1, 2, 4, 8}

// RunShards measures multi-core sharded discovery: the stream is
// hash-partitioned across N independent pipelines whose partial schemas are
// merged at the end (core.Discover with Config.Shards = N). Expected shape
// on a host with ≥ N CPUs: near-linear speedup while per-shard batches stay
// large enough to amortize per-batch overheads (embedding, LSH setup),
// flattening as shards outnumber cores or batches get thin. On a single-CPU
// host the curve is flat-to-slightly-negative (shards add merge work
// without adding compute) — the GoMaxProcs/NumCPU columns make that
// legible. Quality must not degrade: labeled-type F1* stays at the serial
// level at every N (merge equivalence, TestShardedEquivalence).
func RunShards(w io.Writer, s Settings) ([]ShardPoint, error) {
	s = s.withDefaults()
	profiles := s.profiles()
	if len(s.Datasets) == 0 {
		profiles = []*datagen.Profile{datagen.ProfileByName("LDBC"), datagen.ProfileByName("ICIJ")}
	}
	counts := ShardCounts
	if s.Shards > 0 {
		counts = []int{1, s.Shards}
	}
	var points []ShardPoint

	fmt.Fprintf(w, "Sharded discovery: wall clock vs fleet size (host: %d CPUs, GOMAXPROCS %d)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	tw := newTable(w)
	fmt.Fprintln(tw, "  dataset\tmethod\tshards\ttotal(ms)\tspeedup\tnodeF1*")
	for _, p := range profiles {
		ds := datagen.Generate(p, datagen.Options{Nodes: s.Scale, Seed: s.Seed})
		batches := ds.Graph.SplitRandom(8, s.Seed+7)
		for _, m := range []MethodID{ELSH, MinHash} {
			var base time.Duration
			for _, shards := range counts {
				cfg := core.DefaultConfig()
				cfg.Seed = s.Seed
				cfg.Telemetry = s.Telemetry
				cfg.TrackMembers = true
				cfg.PipelineDepth = s.engineDepth()
				cfg.Shards = shards
				if m == MinHash {
					cfg.Method = core.MethodMinHash
				}
				res := core.Discover(pg.NewSliceSource(batches...), cfg)
				if base == 0 {
					base = res.Discovery
				}
				pt := ShardPoint{
					Dataset: p.Name, Method: m, Shards: shards,
					Nodes: ds.Graph.NumNodes(), Edges: ds.Graph.NumEdges(),
					Elapsed:    res.Discovery,
					Speedup:    float64(base) / float64(res.Discovery),
					NodeF1:     eval.F1Star(typeMembers(res.Schema.NodeTypes), ds.NodeTruth).Micro,
					GoMaxProcs: runtime.GOMAXPROCS(0),
					NumCPU:     runtime.NumCPU(),
				}
				points = append(points, pt)
				fmt.Fprintf(tw, "  %s\t%s\t%d\t%s\t%.2f\t%.3f\n",
					p.Name, m, shards, ms(pt.Elapsed), pt.Speedup, pt.NodeF1)
			}
		}
	}
	return points, tw.Flush()
}
