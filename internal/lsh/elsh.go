package lsh

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// ELSH is Euclidean (p-stable, bucketed-random-projection) LSH: T hash
// functions h_i(x) = ⌊(a_i·x + u_i)/b⌋ with Gaussian a_i and offsets
// u_i ~ U[0, b). Two parameters govern it (§4.2): the bucket length b
// (wider buckets ⇒ more collisions ⇒ coarser clusters) and the number of
// tables T (more tables in the AND-combined signature ⇒ finer clusters).
type ELSH struct {
	dim     int
	bucket  float64
	proj    [][]float64 // T × dim Gaussian projections
	offsets []float64   // T offsets in [0, bucket)
}

// NewELSH builds an ELSH family for dim-dimensional vectors. It panics if
// bucket ≤ 0 or tables < 1 — these are programmer errors; the adaptive
// selector always produces valid values.
func NewELSH(dim int, bucket float64, tables int, seed int64) *ELSH {
	if bucket <= 0 {
		panic(fmt.Sprintf("lsh: bucket length must be positive, got %v", bucket))
	}
	if tables < 1 {
		panic(fmt.Sprintf("lsh: table count must be at least 1, got %d", tables))
	}
	if dim < 1 {
		panic(fmt.Sprintf("lsh: dimension must be at least 1, got %d", dim))
	}
	rng := rand.New(rand.NewSource(seed))
	e := &ELSH{
		dim:     dim,
		bucket:  bucket,
		proj:    make([][]float64, tables),
		offsets: make([]float64, tables),
	}
	for t := 0; t < tables; t++ {
		p := make([]float64, dim)
		for d := range p {
			p[d] = rng.NormFloat64()
		}
		e.proj[t] = p
		e.offsets[t] = rng.Float64() * bucket
	}
	return e
}

// Tables returns T.
func (e *ELSH) Tables() int { return len(e.proj) }

// Bucket returns the bucket length b.
func (e *ELSH) Bucket() float64 { return e.bucket }

// Signature hashes one vector into its T bucket ids.
func (e *ELSH) Signature(x []float64) []int64 {
	if len(x) != e.dim {
		panic(fmt.Sprintf("lsh: vector dimension %d, family expects %d", len(x), e.dim))
	}
	sig := make([]int64, len(e.proj))
	for t, p := range e.proj {
		var dot float64
		for d, v := range x {
			dot += p[d] * v
		}
		sig[t] = int64(math.Floor((dot + e.offsets[t]) / e.bucket))
	}
	return sig
}

// SignatureKey renders the full signature as a map key.
func (e *ELSH) SignatureKey(x []float64) string {
	sig := e.Signature(x)
	var sb strings.Builder
	for i, s := range sig {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatInt(s, 10))
	}
	return sb.String()
}

// SignatureHash hashes the full T-value signature into 64 bits without
// allocating (the fast path for full-signature grouping; see GroupByHash).
func (e *ELSH) SignatureHash(x []float64) uint64 {
	if len(x) != e.dim {
		panic(fmt.Sprintf("lsh: vector dimension %d, family expects %d", len(x), e.dim))
	}
	h := uint64(fnvOffset)
	for t, p := range e.proj {
		var dot float64
		for d, v := range x {
			dot += p[d] * v
		}
		h = fnvMix(h, uint64(int64(math.Floor((dot+e.offsets[t])/e.bucket))))
	}
	return h
}

// Cluster groups vectors that share the full T-value signature. Vectors
// whose Euclidean distance is well below b collide in every table with high
// probability and land together; distant vectors separate.
func (e *ELSH) Cluster(vectors [][]float64) []Cluster {
	keys := make([]string, len(vectors))
	for i, v := range vectors {
		keys[i] = e.SignatureKey(v)
	}
	return groupBySignature(len(vectors), 0, func(i int) string { return keys[i] })
}

// CollisionProbability returns p_b(d): the probability that two points at
// Euclidean distance d collide in one table, for the Gaussian p-stable
// family (Datar et al. 2004):
//
//	p(d) = 1 − 2Φ(−b/d) − (2d/(√(2π)·b))·(1 − exp(−b²/(2d²)))
//
// For d = 0 the probability is 1. It is monotonically decreasing in d.
func (e *ELSH) CollisionProbability(d float64) float64 {
	return collisionProbability(d, e.bucket)
}

func collisionProbability(d, b float64) float64 {
	if d <= 0 {
		return 1
	}
	r := b / d
	p := 1 - 2*stdNormalCDF(-r) - (2/(math.Sqrt(2*math.Pi)*r))*(1-math.Exp(-r*r/2))
	if p < 0 {
		return 0
	}
	return p
}

// OrCollisionProbability returns P_{b,T}(d) = 1 − (1 − p_b(d))^T, the
// probability of colliding in at least one of T independent tables (the OR
// rule from §4.2's analysis).
func (e *ELSH) OrCollisionProbability(d float64) float64 {
	p := e.CollisionProbability(d)
	return 1 - math.Pow(1-p, float64(len(e.proj)))
}

// AndCollisionProbability returns p_b(d)^T, the probability of agreeing in
// all T tables — the event that actually merges two elements under
// full-signature grouping.
func (e *ELSH) AndCollisionProbability(d float64) float64 {
	return math.Pow(e.CollisionProbability(d), float64(len(e.proj)))
}

func stdNormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// EuclideanDistance returns the L2 distance between two equal-length
// vectors.
func EuclideanDistance(a, b []float64) float64 {
	return math.Sqrt(squaredDistance(a, b))
}

// squaredDistance accumulates Σ(a_i−b_i)² in ascending index order — the
// operation sequence factored adaptation reproduces over the prefix block.
func squaredDistance(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
