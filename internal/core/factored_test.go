package core

import (
	"reflect"
	"testing"

	"pghive/internal/datagen"
	"pghive/internal/lsh"
	"pghive/internal/pg"
)

// denseClusterKind is the reference the factored kernels are held to: the
// dense arms the cluster stage ran before the factored kernels became its
// only path. Every element vector of the kind is materialized by
// vectorize's reference renderer (NodeVectors/EdgeVectors), ELSH parameters
// adapt over those vectors as a dense vector set (each vector its own
// record and prefix, no suffix — lsh's adaptation tests hold that case to
// the dense µ loop), ELSH hashes each vector through
// lsh.ELSH.SignatureHash, and MinHash hashes each element's token set
// (vectorize's NodeSets/EdgeSets) or bands them through
// lsh.MinHash.ClusterBanded. Seeds repeat clusterKindInner's per-kind
// offsets.
func denseClusterKind(cfg Config, spec kindSpec, vectors [][]float64, sets [][]uint64) ([]lsh.Cluster, lsh.Params) {
	n := spec.n
	if n == 0 {
		return nil, lsh.Params{}
	}
	manual := cfg.NodeParams
	mhSeed, adaptSeed, famSeed := int64(101), int64(11), int64(102)
	if spec.isEdge {
		manual = cfg.EdgeParams
		mhSeed, adaptSeed, famSeed = 201, 12, 202
	}
	var params lsh.Params
	if manual != nil {
		params = *manual
	} else {
		own := make([]int32, n)
		for i := range own {
			own[i] = int32(i)
		}
		params = lsh.AdaptParams(vectors, 0, own, func(r int) (int, []int32) { return r, nil },
			spec.labelTokens, spec.isEdge, cfg.Seed+adaptSeed)
	}
	hashes := make([]uint64, n)
	switch cfg.Method {
	case MethodMinHash:
		mh := lsh.NewMinHash(params.Tables, cfg.Seed+mhSeed)
		if cfg.MinHashRows > 0 {
			return mh.ClusterBanded(sets, cfg.MinHashRows), params
		}
		for i, s := range sets {
			hashes[i] = mh.SignatureHash(s)
		}
	default:
		fam := lsh.NewELSH(len(vectors[0]), params.Bucket, params.Tables, cfg.Seed+famSeed)
		for i, v := range vectors {
			hashes[i] = fam.SignatureHash(v)
		}
	}
	return lsh.GroupByHash(hashes), params
}

// TestFactoredMatchesDense is the factored kernels' contract (DESIGN §8):
// on every batch of a stream, the clusters and adapted LSH parameters
// p.clusterKind produces for nodes and for edges equal those of the dense
// reference above — for ELSH, MinHash, banded MinHash and manual ELSH
// parameters. Equal clusters and parameters on every batch make the
// finalized schema byte-identical to a dense-kernel run. The streams are
// the engine graph and a noisy ICIJ graph, whose property removal and
// missing labels give many near-duplicate records that only exact
// signatures keep apart.
func TestFactoredMatchesDense(t *testing.T) {
	icij := datagen.Generate(datagen.ProfileByName("ICIJ"), datagen.Options{Nodes: 600, Seed: 3})
	streams := []struct {
		name    string
		batches []*pg.Batch
	}{
		{"engine", engineGraph(t, 400).SplitRandom(6, 11)},
		{"icij", datagen.NewNoise(0.3, 0.5, 7).Apply(icij).Graph.SplitRandom(5, 11)},
	}
	cases := []struct {
		name string
		set  func(*Config)
	}{
		{"elsh", func(c *Config) { c.Method = MethodELSH }},
		{"minhash", func(c *Config) { c.Method = MethodMinHash }},
		{"minhash-banded", func(c *Config) { c.Method = MethodMinHash; c.MinHashRows = 4 }},
		{"elsh-manual", func(c *Config) {
			c.NodeParams = &lsh.Params{Bucket: 0.5, Tables: 6}
			c.EdgeParams = &lsh.Params{Bucket: 2, Tables: 3}
		}},
	}
	for _, tc := range cases {
		for _, st := range streams {
			checkFactoredStream(t, tc.name+"/"+st.name, tc.set, st.batches)
		}
	}
}

// TestFactoredReportsMatchDense: the per-batch cluster counts and adapted
// LSH parameters a full Discover run reports — not just the final schema —
// agree with a dense-kernel run of the same stream, at serial and
// overlapped pipeline depths. This pins the claim that the factored path's
// sample-based adaptation sees exactly the vectors the dense path renders,
// through the engine's own cluster stage.
func TestFactoredReportsMatchDense(t *testing.T) {
	batches := engineGraph(t, 300).SplitRandom(5, 3)
	for _, m := range []Method{MethodELSH, MethodMinHash} {
		for _, depth := range []int{1, 4} {
			cfg := DefaultConfig()
			cfg.Method = m
			cfg.PipelineDepth = depth
			want := denseReports(cfg, batches)
			got := Discover(pg.NewSliceSource(batches...), cfg).Reports
			if len(want) != len(got) {
				t.Fatalf("%v depth=%d: %d factored reports, %d dense", m, depth, len(got), len(want))
			}
			for i := range want {
				w, gr := want[i], got[i]
				if w.NodeClusters != gr.NodeClusters || w.EdgeClusters != gr.EdgeClusters {
					t.Errorf("%v depth=%d batch %d: clusters (n=%d,e=%d) factored vs (n=%d,e=%d) dense",
						m, depth, i, gr.NodeClusters, gr.EdgeClusters, w.NodeClusters, w.EdgeClusters)
				}
				if w.NodeParams != gr.NodeParams || w.EdgeParams != gr.EdgeParams {
					t.Errorf("%v depth=%d batch %d: adapted params diverge\nfactored: %+v / %+v\ndense:    %+v / %+v",
						m, depth, i, gr.NodeParams, gr.EdgeParams, w.NodeParams, w.EdgeParams)
				}
			}
		}
	}
}

// denseReports runs batches through a pipeline whose cluster stage is the
// dense reference, returning the per-batch reports a dense-kernel run makes.
func denseReports(cfg Config, batches []*pg.Batch) []BatchReport {
	p := NewPipeline(cfg)
	for seq, b := range batches {
		st := p.preprocess(b, seq)
		c := computed{staged: st}
		c.nodeClusters, c.report.NodeParams = denseClusterKind(p.cfg, nodeSpec(st.b, st.vz), st.vz.NodeVectors(st.b), st.vz.NodeSets(st.b))
		c.edgeClusters, c.report.EdgeParams = denseClusterKind(p.cfg, edgeSpec(st.b, st.vz), st.vz.EdgeVectors(st.b), st.vz.EdgeSets(st.b))
		c.report.NodeClusters, c.report.EdgeClusters = len(c.nodeClusters), len(c.edgeClusters)
		p.extractChecked(c, seq)
	}
	return p.reports
}

// checkFactoredStream feeds batches through a pipeline configured by set,
// holding each batch's clusters and parameters to the dense reference.
func checkFactoredStream(t *testing.T, name string, set func(*Config), batches []*pg.Batch) {
	t.Helper()
	cfg := DefaultConfig()
	set(&cfg)
	p := NewPipeline(cfg)
	for seq, b := range batches {
		st := p.preprocess(b, seq)
		c := computed{staged: st}
		ns, es := nodeSpec(st.b, st.vz), edgeSpec(st.b, st.vz)
		c.nodeClusters, c.report.NodeParams = p.clusterKind(ns)
		c.edgeClusters, c.report.EdgeParams = p.clusterKind(es)
		for _, k := range []struct {
			kind     string
			spec     kindSpec
			vectors  [][]float64
			sets     [][]uint64
			clusters []lsh.Cluster
			params   lsh.Params
		}{
			{"nodes", ns, st.vz.NodeVectors(st.b), st.vz.NodeSets(st.b), c.nodeClusters, c.report.NodeParams},
			{"edges", es, st.vz.EdgeVectors(st.b), st.vz.EdgeSets(st.b), c.edgeClusters, c.report.EdgeParams},
		} {
			if k.spec.n == 0 {
				t.Fatalf("%s batch %d: no %s to cluster", name, seq, k.kind)
			}
			want, wantParams := denseClusterKind(p.cfg, k.spec, k.vectors, k.sets)
			if k.params != wantParams {
				t.Errorf("%s batch %d %s: params %+v, dense %+v", name, seq, k.kind, k.params, wantParams)
			}
			if !reflect.DeepEqual(k.clusters, want) {
				t.Errorf("%s batch %d %s: %d factored clusters differ from %d dense clusters",
					name, seq, k.kind, len(k.clusters), len(want))
			}
		}
		p.extractChecked(c, seq)
	}
}
