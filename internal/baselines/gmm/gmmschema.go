package gmm

import (
	"errors"
	"sort"
	"time"

	"pghive/internal/pg"
	"pghive/internal/schema"
)

// ErrUnlabeled is returned when the input contains unlabeled nodes:
// GMMSchema assumes fully labeled datasets (limitation (ii) in the PG-HIVE
// paper) and cannot run otherwise.
var ErrUnlabeled = errors.New("gmm: GMMSchema requires fully labeled nodes")

// Config controls a GMMSchema run.
type Config struct {
	// MaxIter and Tol bound each EM fit.
	MaxIter int
	Tol     float64
	// MinClusterSize stops bisection of small clusters.
	MinClusterSize int
	// MaxDepth bounds the bisection recursion.
	MaxDepth int
	// SampleCap, when > 0 and below the node count, fits each GMM on a
	// random sample of that size and assigns the rest by the fitted model —
	// the sampling shortcut the original system uses on large graphs
	// (limitation (iv): it trades completeness for speed).
	SampleCap int
	// Seed drives initialization and sampling.
	Seed int64
}

// DefaultConfig mirrors the baseline's published setup.
func DefaultConfig() Config {
	return Config{
		MaxIter:        25,
		Tol:            1e-4,
		MinClusterSize: 4,
		MaxDepth:       12,
		SampleCap:      20000,
		Seed:           1,
	}
}

// Result is the outcome of a GMMSchema run: node types only.
type Result struct {
	// Types are the discovered node types (cluster representatives).
	Types []*schema.Type
	// Assignments maps each input node (by batch index) to its type index.
	Assignments []int
	// Clusters is the number of leaf clusters the bisection produced.
	Clusters int
	// Elapsed is the wall-clock discovery time.
	Elapsed time.Duration
}

// DiscoverNodeTypes runs hierarchical GMM clustering over the batch's
// nodes. It returns ErrUnlabeled if any node lacks labels.
func DiscoverNodeTypes(b *pg.Batch, cfg Config) (*Result, error) {
	start := time.Now()
	for i := range b.Nodes {
		if len(b.Nodes[i].Labels) == 0 {
			return nil, ErrUnlabeled
		}
	}
	if cfg.MaxIter <= 0 {
		cfg = DefaultConfig()
	}
	vectors, _ := nodeVectors(b)
	n := len(vectors)
	if n == 0 {
		return &Result{Elapsed: time.Since(start)}, nil
	}

	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	var leaves [][]int
	bisect(vectors, all, cfg, 0, &leaves)

	res := &Result{Assignments: make([]int, n), Clusters: len(leaves)}
	tab := schema.NewSymtab()
	for ti, members := range leaves {
		t := schema.NewType(tab, schema.NodeKind)
		for _, i := range members {
			rec := &b.Nodes[i]
			t.ObserveNode(rec, true)
			res.Assignments[i] = ti
		}
		res.Types = append(res.Types, t)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// nodeVectors builds the baseline's feature vectors the way the original
// encodes nodes: a single numeric label feature (the label set hashed to a
// scalar — labels are not expanded into a dominant one-hot block) followed
// by property-presence bits. This encoding is why the baseline is noise-
// sensitive: with properties degraded, the many noisy indicator dimensions
// swamp the one label dimension and clusters cross type boundaries (§5.1
// of the PG-HIVE paper: misclustering beyond 20 % noise).
func nodeVectors(b *pg.Batch) ([][]float64, int) {
	labelPos := map[string]int{}
	keyPos := map[string]int{}
	for i := range b.Nodes {
		key := pg.LabelSetKey(b.Nodes[i].Labels)
		if _, ok := labelPos[key]; !ok {
			labelPos[key] = 0
		}
		for k := range b.Nodes[i].Props {
			if _, ok := keyPos[k]; !ok {
				keyPos[k] = 0
			}
		}
	}
	assignPositions(labelPos)
	assignPositions(keyPos)
	nl := len(labelPos)
	dim := 1 + len(keyPos)
	out := make([][]float64, len(b.Nodes))
	for i := range b.Nodes {
		v := make([]float64, dim)
		// Label sets map to evenly spaced scalars in [0, 1].
		v[0] = float64(labelPos[pg.LabelSetKey(b.Nodes[i].Labels)]+1) / float64(nl+1)
		for k := range b.Nodes[i].Props {
			v[1+keyPos[k]] = 1
		}
		out[i] = v
	}
	return out, dim
}

// assignPositions replaces placeholder values with sorted-order positions
// for deterministic vector layouts.
func assignPositions(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		m[k] = i
	}
}

// bisect recursively splits a cluster with a 2-component GMM when BIC
// prefers the split over the single Gaussian.
func bisect(vectors [][]float64, members []int, cfg Config, depth int, leaves *[][]int) {
	if depth >= cfg.MaxDepth || len(members) < 2*cfg.MinClusterSize {
		*leaves = append(*leaves, members)
		return
	}
	sub := gather(vectors, members)
	fit := sub
	if cfg.SampleCap > 0 && len(sub) > cfg.SampleCap {
		idx := sampleIndexes(len(sub), cfg.SampleCap, cfg.Seed+int64(depth))
		fit = make([][]float64, len(idx))
		for i, j := range idx {
			fit[i] = sub[j]
		}
	}
	dim := len(fit[0])
	_, lik1 := FitEM(fit, 1, cfg.MaxIter, cfg.Tol, cfg.Seed+int64(depth))
	two, lik2 := FitEM(fit, 2, cfg.MaxIter, cfg.Tol, cfg.Seed+int64(depth)+1)
	if BIC(lik2, 2, dim, len(fit)) >= BIC(lik1, 1, dim, len(fit)) {
		*leaves = append(*leaves, members)
		return
	}
	var left, right []int
	for _, i := range members {
		if two.Assign(vectors[i]) == 0 {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		*leaves = append(*leaves, members)
		return
	}
	bisect(vectors, left, cfg, depth+1, leaves)
	bisect(vectors, right, cfg, depth+1, leaves)
}

func gather(vectors [][]float64, members []int) [][]float64 {
	out := make([][]float64, len(members))
	for i, m := range members {
		out[i] = vectors[m]
	}
	return out
}

func sampleIndexes(n, k int, seed int64) []int {
	// Deterministic partial Fisher-Yates.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	state := uint64(seed)*2862933555777941757 + 3037000493
	for i := 0; i < k; i++ {
		state = state*2862933555777941757 + 3037000493
		j := i + int(state%uint64(n-i))
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}
