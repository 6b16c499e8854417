// Package embed implements Word2Vec — skip-gram with negative sampling
// (Mikolov et al. 2013) — over label-token sentences. PG-HIVE trains a
// Word2Vec model on the node and edge labels observed in the dataset so
// that identical label sets map to identical embeddings and co-occurring
// labels map to nearby ones (§4.1 of the paper).
//
// The implementation is deterministic for a fixed seed and depends only on
// the standard library.
package embed

import (
	"math"
	"math/rand"
	"sort"
)

// Config holds Word2Vec training hyperparameters.
type Config struct {
	// Dim is the embedding dimensionality d. The paper's examples use small
	// fixed dimensions; the default is 16.
	Dim int
	// Window is the skip-gram context window radius. Default 2 (label
	// sentences are short triples).
	Window int
	// Epochs is the number of passes over the corpus. Default 15.
	Epochs int
	// Negative is the number of negative samples per positive pair.
	// Default 5.
	Negative int
	// LearningRate is the initial SGD step size, linearly decayed to 10% of
	// its initial value. Default 0.05.
	LearningRate float64
	// Seed drives all randomness (initialization, negative sampling,
	// shuffling).
	Seed int64
	// Normalize, if true, rescales each output vector to unit L2 norm so
	// embedding distances are on a stable scale next to binary property
	// indicators. Default true (set by DefaultConfig).
	Normalize bool
}

// DefaultConfig returns the configuration used by the PG-HIVE pipeline.
func DefaultConfig() Config {
	return Config{Dim: 16, Window: 2, Epochs: 15, Negative: 5, LearningRate: 0.05, Seed: 1, Normalize: true}
}

func (c Config) withDefaults() Config {
	if c.Dim <= 0 {
		c.Dim = 16
	}
	if c.Window <= 0 {
		c.Window = 2
	}
	if c.Epochs <= 0 {
		c.Epochs = 15
	}
	if c.Negative <= 0 {
		c.Negative = 5
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.05
	}
	return c
}

// Model is a trained Word2Vec model: a dense vector per vocabulary token.
type Model struct {
	dim    int
	vocab  map[string]int
	vecs   [][]float64 // input (word) vectors, one per vocab entry
	tokens []string
}

// Set inserts or replaces a token's embedding. The vector is stored by
// reference (the caller must not mutate it afterwards) and must match the
// model's dimensionality. Not safe for use concurrently with Vector.
func (m *Model) Set(token string, vec []float64) {
	if len(vec) != m.dim {
		panic("embed: Set vector dimensionality mismatch")
	}
	if idx, ok := m.vocab[token]; ok {
		m.vecs[idx] = vec
		return
	}
	m.vocab[token] = len(m.tokens)
	m.tokens = append(m.tokens, token)
	m.vecs = append(m.vecs, vec)
}

// Dim returns the embedding dimensionality.
func (m *Model) Dim() int { return m.dim }

// VocabSize returns the number of distinct tokens.
func (m *Model) VocabSize() int { return len(m.tokens) }

// Tokens returns the vocabulary in sorted order.
func (m *Model) Tokens() []string {
	out := append([]string(nil), m.tokens...)
	sort.Strings(out)
	return out
}

// Vector returns the embedding of token, or a zero vector when the token is
// unknown or empty. This matches the paper's treatment of unlabeled
// elements: the label slot is a zero vector of size d (§4.1, Example 3).
// The returned slice must not be mutated.
func (m *Model) Vector(token string) []float64 {
	if idx, ok := m.vocab[token]; ok {
		return m.vecs[idx]
	}
	return make([]float64, m.dim)
}

// Has reports whether the token is in the vocabulary.
func (m *Model) Has(token string) bool {
	_, ok := m.vocab[token]
	return ok
}

// CosineSimilarity returns the cosine similarity of two tokens' embeddings,
// or 0 when either is unknown.
func (m *Model) CosineSimilarity(a, b string) float64 {
	va, vb := m.Vector(a), m.Vector(b)
	var dot, na, nb float64
	for i := range va {
		dot += va[i] * vb[i]
		na += va[i] * va[i]
		nb += vb[i] * vb[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Train fits a skip-gram-with-negative-sampling model on the corpus: a
// slice of sentences, each a slice of tokens. Empty tokens are skipped
// (they denote missing labels). Sentences with fewer than two non-empty
// tokens contribute nothing to training but still enter the vocabulary so
// that every observed label has a stable embedding.
func Train(corpus [][]string, cfg Config) *Model {
	cfg = cfg.withDefaults()
	m := &Model{dim: cfg.Dim, vocab: map[string]int{}}

	counts := []int{}
	var clean [][]int
	for _, sentence := range corpus {
		ids := make([]int, 0, len(sentence))
		for _, tok := range sentence {
			if tok == "" {
				continue
			}
			idx, ok := m.vocab[tok]
			if !ok {
				idx = len(m.tokens)
				m.vocab[tok] = idx
				m.tokens = append(m.tokens, tok)
				counts = append(counts, 0)
			}
			counts[idx]++
			ids = append(ids, idx)
		}
		if len(ids) >= 2 {
			clean = append(clean, ids)
		}
	}

	v := len(m.tokens)
	rng := rand.New(rand.NewSource(cfg.Seed))
	m.vecs = make([][]float64, v)
	ctx := make([][]float64, v) // output (context) vectors
	for i := 0; i < v; i++ {
		m.vecs[i] = make([]float64, cfg.Dim)
		ctx[i] = make([]float64, cfg.Dim)
		for d := 0; d < cfg.Dim; d++ {
			m.vecs[i][d] = (rng.Float64() - 0.5) / float64(cfg.Dim)
		}
	}

	if len(clean) > 0 && v > 1 {
		table := buildSamplingTable(counts)
		trainSGNS(m.vecs, ctx, clean, table, cfg, rng)
	}

	if cfg.Normalize {
		for i := range m.vecs {
			normalize(m.vecs[i])
		}
	}
	return m
}

// buildSamplingTable returns a cumulative distribution over the vocabulary
// proportional to count^0.75, the standard unigram smoothing for negative
// sampling.
func buildSamplingTable(counts []int) []float64 {
	cdf := make([]float64, len(counts))
	total := 0.0
	for i, c := range counts {
		total += math.Pow(float64(c), 0.75)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return cdf
}

func sampleToken(cdf []float64, rng *rand.Rand) int {
	x := rng.Float64()
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func trainSGNS(vecs, ctx [][]float64, sentences [][]int, cdf []float64, cfg Config, rng *rand.Rand) {
	totalPairs := 0
	for _, s := range sentences {
		totalPairs += len(s) * (2 * cfg.Window)
	}
	step := 0
	grad := make([]float64, cfg.Dim)
	order := make([]int, len(sentences))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, si := range order {
			s := sentences[si]
			for pos, center := range s {
				for off := -cfg.Window; off <= cfg.Window; off++ {
					cpos := pos + off
					if off == 0 || cpos < 0 || cpos >= len(s) {
						continue
					}
					progress := float64(step) / float64(cfg.Epochs*totalPairs+1)
					lr := cfg.LearningRate * (1 - 0.9*progress)
					step++
					trainPair(vecs[center], ctx, s[cpos], cdf, cfg.Negative, lr, rng, grad)
				}
			}
		}
	}
}

// trainPair performs one SGD step for (center, context) plus negatives.
func trainPair(center []float64, ctx [][]float64, target int, cdf []float64, negative int, lr float64, rng *rand.Rand, grad []float64) {
	for i := range grad {
		grad[i] = 0
	}
	for k := 0; k <= negative; k++ {
		tok := target
		label := 1.0
		if k > 0 {
			tok = sampleToken(cdf, rng)
			if tok == target {
				continue
			}
			label = 0
		}
		out := ctx[tok]
		var dot float64
		for i := range center {
			dot += center[i] * out[i]
		}
		g := (sigmoid(dot) - label) * lr
		for i := range center {
			grad[i] += g * out[i]
			out[i] -= g * center[i]
		}
	}
	for i := range center {
		center[i] -= grad[i]
	}
}

func sigmoid(x float64) float64 {
	if x > 30 {
		return 1
	}
	if x < -30 {
		return 0
	}
	return 1 / (1 + math.Exp(-x))
}

func normalize(v []float64) {
	var n float64
	for _, x := range v {
		n += x * x
	}
	if n == 0 {
		return
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] /= n
	}
}
