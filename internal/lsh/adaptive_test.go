package lsh

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randomVectors(n, dim int, spread float64, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, dim)
		for j := range v {
			v[j] = spread * rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

// denseAdaptParams is the dense reference adaptation: it draws the paper's
// sample from the full vector set, averages EuclideanDistance over the
// sampled pairs with the same pair draws as the factored kernel (denseScale)
// and derives the parameters from that µ.
func denseAdaptParams(vectors [][]float64, labelCount int, isEdge bool, seed int64) Params {
	n := len(vectors)
	idx := SampleIndexes(n, seed)
	sample := make([][]float64, len(idx))
	for i, j := range idx {
		sample[i] = vectors[j]
	}
	return paramsForScale(denseScale(sample, seed), n, labelCount, isEdge)
}

// denseScale is the dense µ loop: the average Euclidean distance over every
// pair of the sample when there are at most maxPairs of them, otherwise over
// maxPairs random pairs drawn from seed.
func denseScale(sample [][]float64, seed int64) float64 {
	n := len(sample)
	if n < 2 {
		return 0
	}
	rng := rand.New(rand.NewSource(seed))
	allPairs := n * (n - 1) / 2
	var sum float64
	count := 0
	if allPairs <= maxPairs {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				sum += EuclideanDistance(sample[i], sample[j])
				count++
			}
		}
	} else {
		for k := 0; k < maxPairs; k++ {
			i := rng.Intn(n)
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			sum += EuclideanDistance(sample[i], sample[j])
			count++
		}
	}
	return sum / float64(count)
}

// ownPrefix presents a dense vector set to the factored kernel: every
// vector is its own record and its own prefix, and the suffix is empty.
func ownPrefix(r int) (int, []int32) { return r, nil }

// identity maps every one of n elements to its own record.
func identity(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// adaptVectors adapts on a dense vector set through the factored kernel.
func adaptVectors(vectors [][]float64, labelCount int, isEdge bool, seed int64) Params {
	return AdaptParams(vectors, 0, identity(len(vectors)), ownPrefix, labelCount, isEdge, seed)
}

// factoredScale is the factored kernel's µ over exactly the given vectors
// (no sample draw), the counterpart of denseScale.
func factoredScale(vectors [][]float64, seed int64) float64 {
	idx := make([]int, len(vectors))
	for i := range idx {
		idx[i] = i
	}
	return newFactoredSample(vectors, 0, idx, identity(len(vectors)), ownPrefix).distanceScale(seed)
}

// sameParams reports whether two parameter sets are equal bit for bit.
func sameParams(a, b Params) bool {
	bitsEq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return bitsEq(a.Mu, b.Mu) && bitsEq(a.BBase, b.BBase) && bitsEq(a.Alpha, b.Alpha) &&
		bitsEq(a.Bucket, b.Bucket) && a.Tables == b.Tables
}

func TestAlphaForLabels(t *testing.T) {
	tests := []struct {
		labels int
		want   float64
	}{
		{0, 0.8}, {1, 0.8}, {3, 0.8},
		{4, 1.0}, {7, 1.0}, {10, 1.0},
		{11, 1.5}, {100, 1.5},
	}
	for _, tc := range tests {
		if got := alphaForLabels(tc.labels); got != tc.want {
			t.Errorf("alphaForLabels(%d) = %v, want %v", tc.labels, got, tc.want)
		}
	}
}

func TestSampleSize(t *testing.T) {
	tests := []struct{ population, want int }{
		{0, 0},
		{5, 5},
		{9_999, 9_999},
		{10_000, 10_000},
		{500_000, 10_000},   // 1% = 5000 < floor 10k
		{2_000_000, 20_000}, // 1% = 20k > floor
	}
	for _, tc := range tests {
		if got := SampleSize(tc.population); got != tc.want {
			t.Errorf("SampleSize(%d) = %d, want %d", tc.population, got, tc.want)
		}
	}
}

func TestSampleIndexesDistinct(t *testing.T) {
	idx := SampleIndexes(500, 3)
	if len(idx) != 500 {
		t.Fatalf("len = %d, want 500", len(idx))
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= 500 || seen[i] {
			t.Fatalf("bad or duplicate index %d", i)
		}
		seen[i] = true
	}
}

func TestAdaptParamsBucketScalesWithData(t *testing.T) {
	tight := adaptVectors(randomVectors(500, 8, 0.1, 1), 5, false, 1)
	loose := adaptVectors(randomVectors(500, 8, 10.0, 1), 5, false, 1)
	if tight.Bucket >= loose.Bucket {
		t.Errorf("tight data bucket %v should be below loose data bucket %v", tight.Bucket, loose.Bucket)
	}
	// b = 1.2·µ·α with α=1 here.
	if math.Abs(tight.Bucket-1.2*tight.Mu) > 1e-9 {
		t.Errorf("Bucket = %v, want 1.2µ = %v", tight.Bucket, 1.2*tight.Mu)
	}
}

func TestAdaptParamsAlphaApplied(t *testing.T) {
	vecs := randomVectors(300, 8, 1, 2)
	few := adaptVectors(vecs, 2, false, 1)
	mid := adaptVectors(vecs, 7, false, 1)
	many := adaptVectors(vecs, 20, false, 1)
	if few.Alpha != 0.8 || mid.Alpha != 1.0 || many.Alpha != 1.5 {
		t.Fatalf("alphas = %v %v %v, want 0.8 1.0 1.5", few.Alpha, mid.Alpha, many.Alpha)
	}
	if !(few.Bucket < mid.Bucket && mid.Bucket < many.Bucket) {
		t.Errorf("buckets should grow with label count: %v %v %v", few.Bucket, mid.Bucket, many.Bucket)
	}
}

func TestAdaptParamsTablesClamped(t *testing.T) {
	for _, tc := range []struct {
		n      int
		spread float64
		labels int
		isEdge bool
	}{
		{10, 0.01, 1, false},
		{5000, 100, 20, true}, // large spread pushes T up
		{2, 0.5, 3, false},
		{1, 0, 0, false}, // degenerate: single vector
		{0, 0, 0, true},  // empty input
	} {
		var vecs [][]float64
		if tc.n > 0 {
			vecs = randomVectors(tc.n, 6, tc.spread, 3)
		}
		p := adaptVectors(vecs, tc.labels, tc.isEdge, 1)
		if p.Tables < minTables || p.Tables > maxTables {
			t.Errorf("n=%d spread=%v: Tables = %d outside [%d,%d]", tc.n, tc.spread, p.Tables, minTables, maxTables)
		}
		if p.Bucket <= 0 {
			t.Errorf("n=%d: Bucket = %v, want positive", tc.n, p.Bucket)
		}
	}
}

func TestAdaptParamsDeterministic(t *testing.T) {
	vecs := randomVectors(400, 8, 1, 7)
	a := adaptVectors(vecs, 5, false, 42)
	b := adaptVectors(vecs, 5, false, 42)
	if a != b {
		t.Errorf("AdaptParams not deterministic: %+v vs %+v", a, b)
	}
}

func TestAdaptParamsEdgeVariant(t *testing.T) {
	// With tiny logN, the node floor is 5 and the edge floor is 3, so for
	// identical small inputs T_node ≥ T_edge.
	vecs := randomVectors(20, 6, 1, 9)
	node := adaptVectors(vecs, 5, false, 1)
	edge := adaptVectors(vecs, 5, true, 1)
	if node.Tables < edge.Tables {
		t.Errorf("node T %d < edge T %d; node floor should dominate on small data", node.Tables, edge.Tables)
	}
}

func TestAdaptParamsPopulationDrivesT(t *testing.T) {
	// The same sample with a larger claimed population must not shrink T
	// (T grows with log10 N until the cap).
	sample := randomVectors(100, 6, 3, 4)
	mu := factoredScale(sample, 1)
	small := paramsForScale(mu, 100, 5, false)
	large := paramsForScale(mu, 10_000_000, 5, false)
	if large.Tables < small.Tables {
		t.Errorf("T(large N) = %d < T(small N) = %d", large.Tables, small.Tables)
	}
}

func TestPairDistanceScaleExactSmall(t *testing.T) {
	// Three points on a line: distances 1, 1, 2 → mean 4/3.
	vecs := [][]float64{{0}, {1}, {2}}
	mu := factoredScale(vecs, 1)
	if math.Abs(mu-4.0/3) > 1e-12 {
		t.Errorf("µ = %v, want 4/3", mu)
	}
}

func TestPairDistanceScaleDegenerate(t *testing.T) {
	if mu := factoredScale(nil, 1); mu != 0 {
		t.Errorf("µ(nil) = %v, want 0", mu)
	}
	if mu := factoredScale([][]float64{{1, 2}}, 1); mu != 0 {
		t.Errorf("µ(single) = %v, want 0", mu)
	}
	// All identical vectors: µ = 0, AdaptParams must still be usable.
	same := make([][]float64, 100)
	for i := range same {
		same[i] = []float64{1, 2, 3}
	}
	p := adaptVectors(same, 1, false, 1)
	if p.Bucket <= 0 {
		t.Errorf("degenerate Bucket = %v, want positive fallback", p.Bucket)
	}
}

func TestPairDistanceScaleLargeInputSampled(t *testing.T) {
	// A large sample must cap pair evaluations and land near the true scale
	// for i.i.d. Gaussians: E||x−y|| ≈ 2.66 for N(0, I₄).
	vecs := randomVectors(30000, 4, 1, 5)
	mu := factoredScale(vecs, 1)
	if mu < 2.2 || mu > 3.2 {
		t.Errorf("µ = %v, want ≈ 2.7 for N(0,I₄) pairs", mu)
	}
}

// TestAdaptParamsFactoredMatchesDense is the factored adaptation's
// bit-identity property: on hybrid vectors in factored form, every pair
// distance equals EuclideanDistance on the materialized vectors, and
// AdaptParams returns exactly the Params (µ included, bit for bit) of the
// dense µ loop. The cases cover both pair regimes (a sample of at most 200
// evaluates every pair, a larger one 20,000 drawn pairs), the all-zero
// prefix of unlabeled elements, empty suffixes, suffix widths at and across
// word boundaries, one prefix shared by every element, one prefix per
// element, and the dense special case itself. Elements either each have
// their own record or draw from a pool of records: one record (R = 1), few
// enough that the R×R record-pair table is filled (R² at most the pairs to
// evaluate, up to the limit itself), and too many (R² above the pairs, and
// above maxPairs), where each pair is computed from its records. Small
// prefix scales keep the prefix-pair sums below the suffix counts, where
// adding the suffix ones in bulk would round differently from the dense
// loop.
func TestAdaptParamsFactoredMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const (
		pool      = iota // elements draw from a few prefixes; prefix 0 is all-zero
		unlabeled        // every element has the all-zero prefix
		shared           // every element has the same non-zero prefix
		own              // one prefix per element
	)
	cases := []struct {
		name      string
		elements  int
		prefixDim int
		suffixLen int
		prefixes  int
		nnz       float64
		scale     float64 // multiplies the generated prefix floats
		records   int     // distinct records the elements draw from; 0: one per element
		table     bool    // the record-pair table is filled
	}{
		{"all-pairs/width1", 150, 16, 1, pool, 0.5, 1, 0, false},
		{"all-pairs/width64", 200, 16, 64, pool, 0.3, 0.05, 0, false},
		{"all-pairs/width65", 120, 8, 65, pool, 0.4, 1, 0, false},
		{"all-pairs/width200", 180, 48, 200, pool, 0.2, 0.02, 0, false},
		{"drawn/width1", 700, 16, 1, pool, 0.5, 0.1, 0, false},
		{"drawn/width64", 500, 16, 64, pool, 0.3, 1, 0, false},
		{"drawn/width65", 900, 4, 65, pool, 0.5, 0.05, 0, false},
		{"drawn/width300", 400, 48, 300, pool, 0.1, 0.02, 0, false},
		{"unlabeled/all-pairs", 60, 16, 40, unlabeled, 0.3, 1, 0, false},
		{"unlabeled/drawn", 300, 16, 40, unlabeled, 0.3, 1, 0, false},
		{"shared/all-pairs", 80, 16, 66, shared, 0.3, 1, 0, false},
		{"shared/drawn", 350, 16, 66, shared, 0.3, 1, 0, false},
		{"own/all-pairs", 100, 16, 130, own, 0.25, 0.03, 0, false},
		{"own/drawn", 260, 16, 130, own, 0.25, 0.03, 0, false},
		{"empty-suffix/all-pairs", 90, 16, 0, pool, 0, 1, 0, false},
		{"empty-suffix/drawn", 250, 16, 0, pool, 0, 1, 0, false},
		{"no-bits-set", 300, 16, 70, pool, 0, 1, 0, false},
		{"suffix-only", 400, 0, 129, unlabeled, 0.3, 1, 0, false},
		{"R=1/all-pairs", 150, 16, 66, pool, 0.3, 1, 1, true},
		{"R=1/drawn", 700, 16, 66, pool, 0.3, 1, 1, true},
		{"table/all-pairs", 200, 16, 130, pool, 0.25, 0.03, 12, true},
		{"table/drawn", 900, 48, 200, pool, 0.2, 0.02, 40, true},
		{"table/suffix-only", 400, 0, 129, unlabeled, 0.3, 1, 9, true},
		{"table/at-pairs", 20, 16, 65, pool, 0.4, 1, 13, true},       // 169 ≤ 190 pairs
		{"fallback/over-pairs", 20, 16, 65, pool, 0.4, 1, 14, false}, // 196 > 190 pairs
		{"table/at-max-pairs", 900, 16, 70, pool, 0.3, 0.05, 141, true},
		{"fallback/all-pairs", 200, 16, 70, pool, 0.3, 0.05, 150, false},
		{"fallback/over-max-pairs", 900, 16, 70, pool, 0.3, 0.05, 150, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := genHybrid(rng, tc.elements, tc.prefixDim, tc.suffixLen, 6, tc.nnz)
			for _, w := range c.prefixes {
				for d := range w {
					w[d] *= tc.scale
				}
			}
			switch tc.prefixes {
			case unlabeled:
				clear(c.tokenIDs)
			case shared:
				for i := range c.tokenIDs {
					c.tokenIDs[i] = 1
				}
			}
			for i, v := range c.dense {
				copy(v, c.prefixes[c.tokenIDs[i]])
			}
			if tc.prefixes == own {
				c.prefixes = make([][]float64, tc.elements)
				for i := range c.prefixes {
					c.prefixes[i] = c.dense[i][:tc.prefixDim]
					c.tokenIDs[i] = i
				}
			}
			// Record r is element r's (prefix, suffix); with a pool, the
			// first tc.records elements are the records and every later
			// element takes one of them.
			recordOf := identity(tc.elements)
			if tc.records > 0 {
				for i := tc.records; i < tc.elements; i++ {
					recordOf[i] = int32(rng.Intn(tc.records))
					c.dense[i] = c.dense[recordOf[i]]
				}
			}
			record := func(r int) (int, []int32) { return c.tokenIDs[r], c.suffixes[r] }
			all := make([]int, tc.elements)
			for i := range all {
				all[i] = i
			}
			fs := newFactoredSample(c.prefixes, tc.suffixLen, all, recordOf, record)
			if got := fs.dist != nil; got != tc.table {
				t.Fatalf("record-pair table filled = %v, want %v", got, tc.table)
			}
			pairs := min(tc.elements*(tc.elements-1)/2, maxPairs)
			if len(fs.dist) > pairs {
				t.Fatalf("record-pair table of %d distances, more than the %d pairs", len(fs.dist), pairs)
			}
			for i := range c.dense {
				for j := i + 1; j < len(c.dense); j += 1 + i%7 {
					if got, want := fs.distance(i, j), EuclideanDistance(c.dense[i], c.dense[j]); got != want {
						t.Fatalf("elements %d, %d: factored distance %v, dense %v", i, j, got, want)
					}
				}
			}
			for _, labels := range []int{2, 7, 40} {
				for _, isEdge := range []bool{false, true} {
					seed := rng.Int63()
					want := denseAdaptParams(c.dense, labels, isEdge, seed)
					if got := AdaptParams(c.prefixes, tc.suffixLen, recordOf, record, labels, isEdge, seed); !sameParams(got, want) {
						t.Fatalf("L=%d edge=%v: factored %+v, dense %+v", labels, isEdge, got, want)
					}
					if got := adaptVectors(c.dense, labels, isEdge, seed); !sameParams(got, want) {
						t.Fatalf("L=%d edge=%v: dense special case %+v, dense %+v", labels, isEdge, got, want)
					}
				}
			}
		})
	}
}

// BenchmarkAdapt compares the dense µ loop over materialized vectors with
// the factored kernel on the same elements, for a batch whose sample is the
// whole batch and one large enough to sample 10,000 elements. Both draw
// 20,000 pairs.
func BenchmarkAdapt(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{500, 24_000} {
		c := genHybrid(rng, n, 48, 64, 12, 0.2)
		recordOf := identity(n)
		record := func(r int) (int, []int32) { return c.tokenIDs[r], c.suffixes[r] }
		b.Run(fmt.Sprintf("n=%d/dense", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				denseAdaptParams(c.dense, 5, true, 1)
			}
		})
		b.Run(fmt.Sprintf("n=%d/factored", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				AdaptParams(c.prefixes, 64, recordOf, record, 5, true, 1)
			}
		})
	}
}

func TestGroupByKeys(t *testing.T) {
	clusters := GroupByKeys([]string{"a", "b", "a", "c", "b", "a"})
	if len(clusters) != 3 {
		t.Fatalf("got %d clusters, want 3", len(clusters))
	}
	if got := clusters[0].Members; len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 5 {
		t.Errorf("cluster 0 members = %v, want [0 2 5]", got)
	}
}
