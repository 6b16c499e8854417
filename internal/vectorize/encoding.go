package vectorize

import "pghive/internal/pg"

// Record is the compact factored form of one element shape (§4.1 exploited
// as structure rather than materialized): an index into the batch's
// distinct weighted-prefix table plus the ascending indexes of the shape's
// property keys in the kind's sorted key layout. Together they determine the
// hybrid vector of every element with that shape exactly — prefix floats
// plus 0/1 suffix — without storing any of its d+K (or 3d+Q) entries.
type Record struct {
	// TokenID indexes Encoding.Prefixes / Encoding.PrefixSets.
	TokenID int
	// Props holds the indexes of the shape's property keys in the layout,
	// sorted ascending — the suffix positions the dense vector sets to 1, in
	// the order the dense dot-product loop visits them.
	Props []int32
}

// Encoding is the factored representation of one batch kind (nodes or
// edges): one Record per element shape (pg.ShapeIndex) over a table of
// distinct prefix vectors, and every element mapped to its shape's record.
// The prefix of a node is its weighted label-set embedding (d floats); the
// prefix of an edge is the concatenation of its label, source and target
// embeddings (3d floats). Distinct prefixes are few (one per label-set token
// for nodes, one per observed (label, src, dst) triple for edges), so the
// factored LSH kernel can precompute per-table projection dots once per
// prefix, and records are few, so signatures and adaptation distances are
// computed once per record instead of once per element.
//
// An Encoding is only meaningful against the Vectorizer that produced it:
// Props indexes the Vectorizer's property-key layout, and the prefix floats
// are shared with its weighted-embedding memo. It is immutable after
// construction and safe for concurrent use.
type Encoding struct {
	// Dim is the full hybrid dimensionality (d+K for nodes, 3d+Q for edges).
	Dim int
	// PrefixDim is the width of the shared embedding prefix (d or 3d).
	PrefixDim int
	// Prefixes holds the distinct weighted prefix vectors, indexed by
	// Record.TokenID. Entries are read-only (node prefixes alias the
	// session's weighted memo).
	Prefixes [][]float64
	// PrefixSets holds, per TokenID, the MinHash tokens contributed by the
	// prefix (the L/S/T label-set tokens; empty label sets contribute none).
	PrefixSets [][]uint64
	// PropTokens maps each property-key index of the layout to its MinHash
	// token (hash of 'P' + key).
	PropTokens []uint64
	// Records holds one record per shape of the kind, in shape order. Two
	// shapes may hold equal records (permuted label lists, or "a&b" beside
	// "a", "b", share a label-set token); a signature or a distance is a
	// function of the record's content, so that is harmless.
	Records []Record
	// RecordOf maps every element of the kind, in batch order, to its
	// record (its shape). It aliases the shape index.
	RecordOf []int32
}

// newEncoding lays out one record per shape: the shapes' layout indexes
// share one arena, and TokenIDs are left for the caller to resolve. Shape
// keys are sorted and the layout is the sorted union of every shape's keys,
// so each record's indexes come out ascending.
func newEncoding(dim, prefixDim int, shapes []pg.Shape, recordOf []int32, keyPos map[string]int, propKeys []string) *Encoding {
	enc := &Encoding{
		Dim:        dim,
		PrefixDim:  prefixDim,
		PropTokens: make([]uint64, len(propKeys)),
		Records:    make([]Record, len(shapes)),
		RecordOf:   recordOf,
	}
	for i, k := range propKeys {
		enc.PropTokens[i] = hashToken('P', k)
	}
	total := 0
	for i := range shapes {
		total += len(shapes[i].Keys)
	}
	arena := make([]int32, 0, total)
	for r := range shapes {
		start := len(arena)
		for _, k := range shapes[r].Keys {
			arena = append(arena, int32(keyPos[k]))
		}
		enc.Records[r].Props = arena[start:len(arena):len(arena)]
	}
	return enc
}

// zeroPrefix returns a shared all-zero prefix for unlabeled (or
// out-of-snapshot) tokens, matching the dense renderer's cleared embedding
// block.
func (v *Vectorizer) zeroPrefix(n int) []float64 { return make([]float64, n) }

// nodePrefix resolves one label-set token to its weighted embedding block
// and MinHash token set.
func (v *Vectorizer) nodePrefix(key string) ([]float64, []uint64) {
	var set []uint64
	if key != "" {
		set = []uint64{hashToken('L', key)}
	}
	if w, ok := v.weighted[key]; ok && key != "" {
		return w, set
	}
	return v.zeroPrefix(v.dim), set
}

// NodeEncoding renders the batch's nodes as compact factored records, one
// per node shape.
func (v *Vectorizer) NodeEncoding() *Encoding {
	enc := newEncoding(v.NodeDim(), v.dim, v.shapes.Nodes, v.shapes.NodeShape, v.nodeKeyPos, v.nodeKeys)
	return resolvePrefixes(enc, v.nodeTokens, v.nodePrefix)
}

// EdgeEncoding renders the batch's edges as compact factored records, one
// per edge shape, over one distinct prefix per observed (label, source,
// target) label-set triple, materialized as the 3d-float concatenation the
// dense renderer would write.
func (v *Vectorizer) EdgeEncoding() *Encoding {
	enc := newEncoding(v.EdgeDim(), 3*v.dim, v.shapes.Edges, v.shapes.EdgeShape, v.edgeKeyPos, v.edgeKeys)
	return resolvePrefixes(enc, v.edgeTokens, v.edgePrefix)
}

// resolvePrefixes points every record at the prefix of its shape's label
// tokens, installing a prefix on its tokens' first sight, so TokenIDs
// number the distinct prefixes in first-appearance order.
func resolvePrefixes[T comparable](enc *Encoding, tokens []T, prefix func(T) ([]float64, []uint64)) *Encoding {
	ids := make(map[T]int)
	for r, tok := range tokens {
		id, ok := ids[tok]
		if !ok {
			id = len(enc.Prefixes)
			ids[tok] = id
			vec, set := prefix(tok)
			enc.Prefixes = append(enc.Prefixes, vec)
			enc.PrefixSets = append(enc.PrefixSets, set)
		}
		enc.Records[r].TokenID = id
	}
	return enc
}

// edgePrefix materializes the concatenated (label, src, dst) weighted
// embedding blocks, exactly as EdgeVectorInto writes them.
func (v *Vectorizer) edgePrefix(tok [3]string) ([]float64, []uint64) {
	d := v.dim
	vec := make([]float64, 3*d)
	set := make([]uint64, 0, 3)
	for b, prefix := range [3]byte{'L', 'S', 'T'} {
		v.copyEmbedding(vec[b*d:(b+1)*d], tok[b])
		if tok[b] != "" {
			set = append(set, hashToken(prefix, tok[b]))
		}
	}
	return vec, set
}

// AppendSet appends record r's MinHash token set (the same multiset
// NodeSet/EdgeSet produce for an element with that record — order differs,
// which MinHash minima ignore) to dst and returns it.
func (e *Encoding) AppendSet(dst []uint64, r int) []uint64 {
	rec := e.Records[r]
	dst = append(dst, e.PrefixSets[rec.TokenID]...)
	for _, k := range rec.Props {
		dst = append(dst, e.PropTokens[k])
	}
	return dst
}
