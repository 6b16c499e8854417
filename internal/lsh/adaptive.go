package lsh

import (
	"math"
	"math/bits"
	"math/rand"
)

// Params are the LSH parameters chosen for one batch of elements.
type Params struct {
	// Mu is the sampled average pairwise Euclidean distance (the distance
	// scale of the data).
	Mu float64
	// BBase = 1.2·Mu, the base bucket length before the label factor.
	BBase float64
	// Alpha is the label-count factor: 0.8 for L ≤ 3, 1.0 for 4 ≤ L ≤ 10,
	// 1.5 for L > 10.
	Alpha float64
	// Bucket is the final ELSH bucket length b = BBase·Alpha.
	Bucket float64
	// Tables is the number of hash tables T.
	Tables int
}

// Clamp bounds for T: the paper's empirically effective range ("T ∈ [15, 35]
// work well across datasets", §4.2). The printed formula can yield smaller
// values on tiny batches, where so few tables lose all selectivity, so the
// result is clamped into the reported range.
const (
	minTables = 15
	maxTables = 35
)

// edgeAlphaScale maps the node α range [0.8, 1.5] onto the paper's edge
// range [0.5, 1.5] (≈ ×0.75): tighter buckets keep differently-labeled
// edge types apart, and the label-merge step repairs any over-separation.
const edgeAlphaScale = 0.75

// SampleSize returns the paper's element sample size for parameter
// adaptation: 1 % of the population or at least 10 000, capped at the
// population itself (§4.2).
func SampleSize(population int) int {
	s := population / 100
	if s < sampleFloor {
		s = sampleFloor
	}
	if s > population {
		s = population
	}
	return s
}

// SampleIndexes draws the adaptation sample: SampleSize(population) distinct
// indexes, deterministic for a given seed.
func SampleIndexes(population int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Perm(population)[:SampleSize(population)]
}

// AdaptParams implements the paper's adaptive parameterization (§4.2) over
// a batch of hybrid vectors held in factored form, the layout FactoredELSH
// hashes: element i has record recordOf[i], and record(r) returns record
// r's prefix id and the ascending positions set in its 0/1 suffix, so an
// element's vector is prefixes[prefixID] followed by suffixWidth suffix
// entries. The population is len(recordOf). A dense vector set is the
// special case where every vector is its own record and its own prefix and
// the suffix is empty. The adaptation sample is SampleIndexes(population,
// seed); record is called once per record present in the sample.
// labelCount is the number of distinct label-set tokens L, and isEdge
// selects the edge variant of the T formula (floor 3 and cap 20 instead of
// 5 and 25).
//
//	µ     = average Euclidean distance over sampled pairs,
//	b_base = 1.2·µ,  b = b_base·α,
//	T = b_base · max(floor, α·min(cap, log10 N)), clamped to [15, 35].
func AdaptParams(prefixes [][]float64, suffixWidth int, recordOf []int32,
	record func(r int) (prefixID int, suffix []int32),
	labelCount int, isEdge bool, seed int64) Params {
	population := len(recordOf)
	mu := newFactoredSample(prefixes, suffixWidth, SampleIndexes(population, seed), recordOf, record).distanceScale(seed)
	return paramsForScale(mu, population, labelCount, isEdge)
}

// paramsForScale derives the batch's parameters from its distance scale µ.
func paramsForScale(mu float64, population int, labelCount int, isEdge bool) Params {
	bBase := 1.2 * mu
	if bBase <= 0 {
		// Degenerate batch (all vectors identical or < 2 elements): any
		// positive bucket groups everything together, which is correct.
		bBase = 1
	}
	alpha := alphaForLabels(labelCount)
	floor, cap := 5.0, 25.0
	if isEdge {
		// Edges benefit from slightly smaller α due to their larger vector
		// representation (§4.2: edge α ∈ [0.5, 1.5] vs node [0.5, 2]).
		alpha *= edgeAlphaScale
		floor, cap = 3.0, 20.0
	}
	logN := 0.0
	if population > 1 {
		logN = math.Log10(float64(population))
	}
	t := bBase * math.Max(floor, alpha*math.Min(cap, logN))
	tables := int(math.Round(t))
	if tables < minTables {
		tables = minTables
	}
	if tables > maxTables {
		tables = maxTables
	}
	return Params{
		Mu:     mu,
		BBase:  bBase,
		Alpha:  alpha,
		Bucket: bBase * alpha,
		Tables: tables,
	}
}

// alphaForLabels returns the label-count factor α (§4.2): graphs with few
// labels need tighter buckets to keep types distinct; graphs with many
// labels need wider buckets to avoid over-fragmentation.
func alphaForLabels(labels int) float64 {
	switch {
	case labels <= 3:
		return 0.8
	case labels <= 10:
		return 1.0
	default:
		return 1.5
	}
}

// Sampling limits for the distance-scale estimate.
const (
	sampleFloor = 10_000 // paper: at least 10k elements
	maxPairs    = 20_000 // distance evaluations, not all O(S²) pairs
)

// factoredSample is the adaptation sample in factored form: per sampled
// element the index of its record among the R records present in the
// sample, and per such record its prefix id and its suffix as a bitset of
// words uint64s.
//
// The dense distance loop accumulates Σ(a_i−b_i)² in ascending position
// order. Over the prefix block that is the prefix pair's partial sum; over
// the suffix every term is exactly 1.0 (the bit is set in one element only)
// or +0.0, and adding +0.0 to a non-negative sum leaves it unchanged. So the
// dense sum is the prefix-pair partial sum plus m additions of 1.0, one at a
// time, with m = popcount of the suffix XOR — bit for bit. A single
// s += float64(m) rounds differently when the ones carry s across two or
// more powers of two and s has fraction bits the intermediate sums shed.
//
// A pair's distance is a function of its two records, so when the R×R
// record-pair table has no more entries than there are pairs to evaluate
// it is filled once and every pair reads it (dist). Otherwise — a dense
// vector set has one record per element — each pair is computed from its
// two records, over the prefix-pair table sums when that one is small
// enough by the same rule.
type factoredSample struct {
	prefixes [][]float64
	rec      []int32 // per sampled element: its sample record
	prefix   []int   // per sample record: its prefix id
	bits     []uint64
	words    int
	// dist holds recordDistance for every ordered pair of sample records,
	// or is nil.
	dist []float64
	// sums holds squaredDistance for every ordered prefix pair when dist is
	// nil and that table has no more entries than there are pairs to
	// evaluate, so filling it never costs more than computing each pair's
	// prefix sum. Otherwise it is nil and each pair computes its prefix sum
	// directly.
	sums []float64
}

func newFactoredSample(prefixes [][]float64, suffixWidth int, idx []int, recordOf []int32, record func(int) (int, []int32)) *factoredSample {
	words := (suffixWidth + 63) / 64
	s := &factoredSample{
		prefixes: prefixes,
		rec:      make([]int32, len(idx)),
		words:    words,
	}
	// Number the records present in the sample in order of appearance:
	// slot holds a record's sample index plus one, 0 while unseen.
	maxRec := int32(-1)
	for _, i := range idx {
		maxRec = max(maxRec, recordOf[i])
	}
	slot := make([]int32, maxRec+1)
	var recs []int32
	for e, i := range idx {
		r := recordOf[i]
		if slot[r] == 0 {
			recs = append(recs, r)
			slot[r] = int32(len(recs))
		}
		s.rec[e] = slot[r] - 1
	}
	s.prefix = make([]int, len(recs))
	s.bits = make([]uint64, len(recs)*words)
	for k, r := range recs {
		id, suffix := record(int(r))
		s.prefix[k] = id
		row := s.bits[k*words : (k+1)*words]
		for _, b := range suffix {
			row[b>>6] |= 1 << (b & 63)
		}
	}
	n, R, p := len(idx), len(recs), len(prefixes)
	pairs := min(n*(n-1)/2, maxPairs)
	if R*R <= pairs {
		s.dist = make([]float64, R*R)
		for a := range R {
			for b := range R {
				s.dist[a*R+b] = s.recordDistance(a, b)
			}
		}
		return s
	}
	if p*p <= pairs {
		s.sums = make([]float64, p*p)
		for a := range prefixes {
			for b := range prefixes {
				s.sums[a*p+b] = squaredDistance(prefixes[a], prefixes[b])
			}
		}
	}
	return s
}

// distance returns the Euclidean distance between sampled elements a and b,
// bit-identical to EuclideanDistance on their dense vectors.
func (s *factoredSample) distance(a, b int) float64 {
	ra, rb := int(s.rec[a]), int(s.rec[b])
	if s.dist != nil {
		return s.dist[ra*len(s.prefix)+rb]
	}
	return s.recordDistance(ra, rb)
}

// recordDistance returns the Euclidean distance between the vectors of
// sample records a and b.
func (s *factoredSample) recordDistance(a, b int) float64 {
	pa, pb := s.prefix[a], s.prefix[b]
	var sum float64
	if s.sums != nil {
		sum = s.sums[pa*len(s.prefixes)+pb]
	} else {
		sum = squaredDistance(s.prefixes[pa], s.prefixes[pb])
	}
	ra := s.bits[a*s.words : (a+1)*s.words]
	rb := s.bits[b*s.words : (b+1)*s.words]
	m := 0
	for w := range ra {
		m += bits.OnesCount64(ra[w] ^ rb[w])
	}
	for ; m > 0; m-- {
		sum += 1.0
	}
	return math.Sqrt(sum)
}

// distanceScale estimates µ, the average pairwise Euclidean distance over
// the sample: every pair when there are at most maxPairs of them, otherwise
// maxPairs random pairs drawn from seed.
func (s *factoredSample) distanceScale(seed int64) float64 {
	n := len(s.rec)
	if n < 2 {
		return 0
	}
	allPairs := n * (n - 1) / 2
	var sum float64
	count := 0
	if allPairs <= maxPairs {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				sum += s.distance(i, j)
				count++
			}
		}
	} else {
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < maxPairs; k++ {
			i := rng.Intn(n)
			j := rng.Intn(n - 1)
			if j >= i {
				j++
			}
			sum += s.distance(i, j)
			count++
		}
	}
	return sum / float64(count)
}
