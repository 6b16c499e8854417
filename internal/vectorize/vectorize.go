// Package vectorize turns batches of property-graph elements into the hybrid
// vector representation of PG-HIVE (§4.1): each node becomes a vector in
// R^{d+K} — a Word2Vec embedding of its (sorted, concatenated) label set
// followed by a binary property-presence vector over the batch's K distinct
// node property keys — and each edge becomes a vector in R^{3d+Q} with three
// embeddings (edge label, source labels, target labels) followed by its
// property indicator over the Q distinct edge property keys.
//
// It also produces the set representation consumed by MinHash LSH: hashed
// tokens for the label set, endpoints and property keys.
//
// Labels are embedded by one Word2Vec model (embed.DefaultConfig: 16
// dimensions, seed 1), cached across batches by a Session: a label-set
// token keeps the vector it was assigned when first observed, and only the
// tokens a batch introduces are trained. The weighted embedding block
// (LabelWeight × vector) is memoized per token, so rendering a record copies
// a precomputed prefix instead of re-scaling the embedding for every element
// that shares a token.
//
// Discovery never renders a dense vector: it clusters, and adapts its LSH
// parameters, on the factored Encoding (encoding.go). The dense renderers
// (NodeVector(Into), EdgeVector(Into), NodeVectors, EdgeVectors) are the
// reference the Encoding and the factored kernels are tested against.
package vectorize

import (
	"hash/fnv"
	"sort"

	"pghive/internal/embed"
	"pghive/internal/pg"
)

// Config controls vectorization. The zero value is the pipeline default.
type Config struct {
	// LabelWeight scales the embedding block(s) relative to the binary
	// property indicators. Labels are exact evidence while property
	// presence is noisy, so weighting the semantic part keeps
	// differently-labeled elements apart when property noise shrinks the
	// structural distance. 0 means DefaultLabelWeight.
	LabelWeight float64
	// SemanticLabels trains the embedding on multi-label co-occurrence
	// (each label set contributes a sentence of its member labels plus its
	// set token), so overlapping label sets land nearby. The default
	// (false) keeps every distinct label set maximally separated — under
	// the paper's type model distinct label sets ARE distinct types, and
	// attraction between {AS} and {AS, Tag} merges types that must stay
	// apart (the IYP failure mode). Enable for integration scenarios where
	// overlapping sets should cluster.
	SemanticLabels bool
}

// DefaultLabelWeight is the default scale of the embedding block.
const DefaultLabelWeight = 2.0

// Session carries the label-embedding state of an incremental discovery run
// across batches. The first batch trains a Word2Vec model over its label-set
// sentences exactly as a one-shot run would, and that model becomes the
// session's table; each subsequent batch reuses the cached vectors of
// already-seen tokens and trains a model only on the sentences its new
// tokens introduce, adopting their vectors into the table.
//
// A Session is not safe for concurrent use: Vectorize calls must be
// serialized in batch order (the cache is order-dependent). The Vectorizers
// it returns are immutable snapshots and may be used concurrently with later
// Vectorize calls — this is what lets the overlapped execution engine
// cluster batch i while batch i+1 is being vectorized.
//
// The session's state is a function of the batches vectorized so far and
// their order: the new tokens of a batch are sorted and trained by the
// single-threaded, seeded embed.Train. So a fresh session fed the same
// batches in the same order holds bit-identical vectors; a resumed
// discovery run relies on this to rebuild its session, which checkpoints
// do not hold.
type Session struct {
	labelWeight float64
	semantic    bool
	model       *embed.Model // combined embedding table, grows across batches
	// weighted memoizes labelWeight × vector per token, for every token
	// trained so far. Entry slices are never mutated after insertion.
	weighted map[string][]float64
	// stats counts cache behaviour across the session's lifetime. Telemetry
	// only — never consulted by the pipeline (a resumed run counts again
	// the tokens it trains while replaying).
	stats SessionStats
}

// SessionStats counts the embedding session's cross-batch cache behaviour.
// Hits and misses are per batch per distinct label-set token: a token a
// batch needs that was trained by an earlier batch is a reuse, a token the
// batch introduces is a training.
type SessionStats struct {
	// TokensReused counts tokens served from the cross-batch cache.
	TokensReused uint64
	// TokensTrained counts tokens newly trained.
	TokensTrained uint64
}

// Stats returns the session's cumulative cache counters. Like Vectorize,
// it must be serialized with other Session calls.
func (s *Session) Stats() SessionStats { return s.stats }

// NewSession starts an embedding session for one discovery run.
func NewSession(cfg Config) *Session {
	s := &Session{
		labelWeight: cfg.LabelWeight,
		semantic:    cfg.SemanticLabels,
		weighted:    map[string][]float64{},
	}
	if s.labelWeight <= 0 {
		s.labelWeight = DefaultLabelWeight
	}
	return s
}

// New scans the batch, trains the label embedding, and returns a ready
// Vectorizer — a one-shot Session for callers without cross-batch state.
func New(b *pg.Batch, cfg Config) *Vectorizer {
	return NewSession(cfg).Vectorize(b)
}

// Vectorize indexes the batch's element shapes (pg.IndexShapes), scans them
// for the property-key vocabulary and the label-set tokens, trains the
// embedding on the tokens this batch introduces, and returns a Vectorizer
// rendering against an immutable snapshot of the session's embedding table.
// The Vectorizer carries the shape index.
func (s *Session) Vectorize(b *pg.Batch) *Vectorizer {
	shapes := pg.IndexShapes(b)
	nodeKeySet := map[string]struct{}{}
	edgeKeySet := map[string]struct{}{}
	batchTokens := map[string]struct{}{}
	sentences := map[string][]string{} // the training sentence of each new token

	// The Word2Vec corpus is the set of observed label sets (§4.1). By
	// default each distinct set contributes a single-token sentence — the
	// model assigns every set token a well-separated embedding, keeping
	// semantically different elements apart even when their structure
	// matches (distinct label sets are distinct types under the paper's
	// model). With SemanticLabels, sentences also carry the member labels,
	// so overlapping sets attract. Shapes come in first-appearance order,
	// so a token's sentence takes the label order of the first element
	// that carries it, as a scan over the elements would.
	observe := func(labels []string) string {
		key := pg.LabelSetKey(labels)
		if key == "" {
			return key
		}
		batchTokens[key] = struct{}{}
		if _, seen := s.weighted[key]; seen {
			return key
		}
		if _, seen := sentences[key]; seen {
			return key
		}
		if !s.semantic || len(labels) == 1 {
			sentences[key] = []string{key}
		} else {
			sentence := make([]string, 0, len(labels)+1)
			sentence = append(sentence, key)
			sentence = append(sentence, labels...)
			sentences[key] = sentence
		}
		return key
	}
	nodeTokens := make([]string, len(shapes.Nodes))
	for i := range shapes.Nodes {
		sh := &shapes.Nodes[i]
		for _, k := range sh.Keys {
			nodeKeySet[k] = struct{}{}
		}
		nodeTokens[i] = observe(sh.Labels)
	}
	edgeTokens := make([][3]string, len(shapes.Edges))
	for i := range shapes.Edges {
		sh := &shapes.Edges[i]
		for _, k := range sh.Keys {
			edgeKeySet[k] = struct{}{}
		}
		edgeTokens[i] = [3]string{observe(sh.Labels), observe(sh.SrcLabels), observe(sh.DstLabels)}
	}

	s.train(sentences)
	s.stats.TokensTrained += uint64(len(sentences))
	s.stats.TokensReused += uint64(len(batchTokens) - len(sentences))
	v := &Vectorizer{
		model:       s.model,
		dim:         s.model.Dim(),
		labelWeight: s.labelWeight,
		labelTokens: len(batchTokens),
		nodeKeys:    sortedSlice(nodeKeySet),
		edgeKeys:    sortedSlice(edgeKeySet),
		shapes:      shapes,
		nodeTokens:  nodeTokens,
		edgeTokens:  edgeTokens,
	}
	v.nodeKeyPos = make(map[string]int, len(v.nodeKeys))
	for i, k := range v.nodeKeys {
		v.nodeKeyPos[k] = i
	}
	v.edgeKeyPos = make(map[string]int, len(v.edgeKeys))
	for i, k := range v.edgeKeys {
		v.edgeKeyPos[k] = i
	}
	// Snapshot the weighted table so this Vectorizer stays safe to read
	// while later Vectorize calls insert new tokens.
	v.weighted = make(map[string][]float64, len(s.weighted))
	for k, w := range s.weighted {
		v.weighted[k] = w
	}
	return v
}

// train embeds the tokens a batch introduces: it trains a model on their
// sentences, in sorted token order so the run is deterministic in batch
// order, and adopts their vectors into the session's table. The first
// batch's model, trained even when the batch has no tokens, becomes the
// table.
func (s *Session) train(sentences map[string][]string) {
	if s.model != nil && len(sentences) == 0 {
		return
	}
	tokens := sortedSlice(sentences)
	corpus := make([][]string, 0, len(tokens))
	for _, tok := range tokens {
		corpus = append(corpus, sentences[tok])
	}
	sub := embed.Train(corpus, embed.DefaultConfig())
	if s.model == nil {
		s.model = sub
	}
	for _, tok := range tokens {
		vec := sub.Vector(tok)
		s.model.Set(tok, vec)
		// Scale once per token instead of once per record.
		w := make([]float64, len(vec))
		for i, x := range vec {
			w[i] = s.labelWeight * x
		}
		s.weighted[tok] = w
	}
}

func sortedSlice[V any](set map[string]V) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Vectorizer renders one batch's element vectors: it holds the batch's
// shape index, its property-key layout and an immutable snapshot of the
// session's embedding table. Algorithm 1 constructs one Vectorizer per batch
// (the preprocess step). All methods except Model are safe for concurrent
// use.
type Vectorizer struct {
	model       *embed.Model
	dim         int
	weighted    map[string][]float64
	labelWeight float64

	nodeKeys    []string       // sorted distinct node property keys (K)
	nodeKeyPos  map[string]int // key -> offset in the binary block
	edgeKeys    []string       // sorted distinct edge property keys (Q)
	edgeKeyPos  map[string]int
	labelTokens int // distinct non-empty label-set tokens seen in the batch

	shapes *pg.ShapeIndex
	// nodeTokens and edgeTokens hold each shape's label-set tokens (an
	// edge's label, source and target tokens), aligned with shapes.Nodes
	// and shapes.Edges.
	nodeTokens []string
	edgeTokens [][3]string
}

// Shapes returns the shape index of the batch the Vectorizer was built
// from.
func (v *Vectorizer) Shapes() *pg.ShapeIndex { return v.shapes }

// Model exposes the session's combined label embedding as of this batch. It
// is a live reference: do not call its methods concurrently with a later
// Session.Vectorize.
func (v *Vectorizer) Model() *embed.Model { return v.model }

// NodeDim returns d + K, the node vector dimensionality.
func (v *Vectorizer) NodeDim() int { return v.dim + len(v.nodeKeys) }

// EdgeDim returns 3d + Q, the edge vector dimensionality.
func (v *Vectorizer) EdgeDim() int { return 3*v.dim + len(v.edgeKeys) }

// NodePropertyKeys returns the batch's distinct node property keys in sorted
// order (the binary block layout).
func (v *Vectorizer) NodePropertyKeys() []string { return v.nodeKeys }

// EdgePropertyKeys returns the batch's distinct edge property keys.
func (v *Vectorizer) EdgePropertyKeys() []string { return v.edgeKeys }

// LabelTokens returns the number of distinct non-empty label-set tokens
// observed, the L used by adaptive LSH parameterization (§4.2).
func (v *Vectorizer) LabelTokens() int { return v.labelTokens }

// NodeVector renders one node record as f_v ∈ R^{d+K}: the label embedding
// (zero vector when unlabeled) concatenated with the property indicator. It
// is the reference renderer the factored NodeEncoding is checked against.
func (v *Vectorizer) NodeVector(n *pg.NodeRecord) []float64 {
	out := make([]float64, v.NodeDim())
	v.NodeVectorInto(n, out)
	return out
}

// NodeVectorInto renders the node into dst, which must have length
// NodeDim(). Every slot is written, so dst may be a recycled or arena-backed
// slice.
func (v *Vectorizer) NodeVectorInto(n *pg.NodeRecord, dst []float64) {
	v.copyEmbedding(dst[:v.dim], pg.LabelSetKey(n.Labels))
	ind := dst[v.dim:]
	clear(ind)
	for k := range n.Props {
		if pos, ok := v.nodeKeyPos[k]; ok {
			ind[pos] = 1
		}
	}
}

// copyEmbedding writes the weighted embedding of the label token into dst
// (sliced to exactly d slots), zeroing it for unknown or empty tokens.
func (v *Vectorizer) copyEmbedding(dst []float64, token string) {
	if w, ok := v.weighted[token]; ok {
		copy(dst, w)
		return
	}
	clear(dst)
}

// EdgeVector renders one edge record as f_e ∈ R^{3d+Q}: embeddings of the
// edge label, the source label set and the target label set, then the edge
// property indicator. It is the reference renderer the factored EdgeEncoding
// is checked against.
func (v *Vectorizer) EdgeVector(e *pg.EdgeRecord) []float64 {
	out := make([]float64, v.EdgeDim())
	v.EdgeVectorInto(e, out)
	return out
}

// EdgeVectorInto renders the edge into dst, which must have length
// EdgeDim(). Every slot is written, so dst may be a recycled or arena-backed
// slice.
func (v *Vectorizer) EdgeVectorInto(e *pg.EdgeRecord, dst []float64) {
	d := v.dim
	v.copyEmbedding(dst[:d], pg.LabelSetKey(e.Labels))
	v.copyEmbedding(dst[d:2*d], pg.LabelSetKey(e.SrcLabels))
	v.copyEmbedding(dst[2*d:3*d], pg.LabelSetKey(e.DstLabels))
	ind := dst[3*d:]
	clear(ind)
	for k := range e.Props {
		if pos, ok := v.edgeKeyPos[k]; ok {
			ind[pos] = 1
		}
	}
}

// NodeVectors renders all node records of the batch, aligned by index.
func (v *Vectorizer) NodeVectors(b *pg.Batch) [][]float64 {
	out := make([][]float64, len(b.Nodes))
	for i := range b.Nodes {
		out[i] = v.NodeVector(&b.Nodes[i])
	}
	return out
}

// EdgeVectors renders all edge records of the batch, aligned by index.
func (v *Vectorizer) EdgeVectors(b *pg.Batch) [][]float64 {
	out := make([][]float64, len(b.Edges))
	for i := range b.Edges {
		out[i] = v.EdgeVector(&b.Edges[i])
	}
	return out
}

// Token hashing for the MinHash set representation. Prefixes keep the token
// namespaces (labels, endpoints, properties) disjoint.
func hashToken(prefix byte, s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte{prefix, ':'})
	h.Write([]byte(s))
	return h.Sum64()
}

// NodeSet renders a node as a set of hashed tokens: its label-set token (if
// labeled) plus one token per property key.
func (v *Vectorizer) NodeSet(n *pg.NodeRecord) []uint64 {
	out := make([]uint64, 0, len(n.Props)+1)
	if key := pg.LabelSetKey(n.Labels); key != "" {
		out = append(out, hashToken('L', key))
	}
	for k := range n.Props {
		out = append(out, hashToken('P', k))
	}
	return out
}

// EdgeSet renders an edge as a set of hashed tokens: label, source and
// target label-set tokens plus property-key tokens.
func (v *Vectorizer) EdgeSet(e *pg.EdgeRecord) []uint64 {
	out := make([]uint64, 0, len(e.Props)+3)
	if key := pg.LabelSetKey(e.Labels); key != "" {
		out = append(out, hashToken('L', key))
	}
	if key := pg.LabelSetKey(e.SrcLabels); key != "" {
		out = append(out, hashToken('S', key))
	}
	if key := pg.LabelSetKey(e.DstLabels); key != "" {
		out = append(out, hashToken('T', key))
	}
	for k := range e.Props {
		out = append(out, hashToken('P', k))
	}
	return out
}

// NodeSets renders all node records as token sets, aligned by index.
func (v *Vectorizer) NodeSets(b *pg.Batch) [][]uint64 {
	out := make([][]uint64, len(b.Nodes))
	for i := range b.Nodes {
		out[i] = v.NodeSet(&b.Nodes[i])
	}
	return out
}

// EdgeSets renders all edge records as token sets, aligned by index.
func (v *Vectorizer) EdgeSets(b *pg.Batch) [][]uint64 {
	out := make([][]uint64, len(b.Edges))
	for i := range b.Edges {
		out[i] = v.EdgeSet(&b.Edges[i])
	}
	return out
}
