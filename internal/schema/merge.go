package schema

// Algorithm 2 ("Extracting and Merging Types") and its shard-level lifting.
// MergeTypes folds candidate types into an evolving schema under the
// monotone rules of §4.3/§4.6; MergeSchemas applies the same rules to an
// entire partial schema, which is what makes partition-and-merge discovery
// sound: by Lemmas 1 and 2 the merge is monotone and order-insensitive over
// the evidence it unions, so N disjoint shards recombine without loss.

// MergeTypes merges candidate types (cluster representatives, or a shard's
// finished types) into the schema for one element kind:
//
//  1. Labeled candidates merge into the existing type with the same label
//     set, or are appended as new types.
//  2. Unlabeled candidates merge into the labeled type whose key set has
//     Jaccard similarity ≥ theta — the best-scoring candidate, so distinct
//     labeled types are never fused through an unlabeled bridge.
//  3. Remaining unlabeled candidates merge with each other (and with
//     previously discovered abstract types) under the same test; leftovers
//     join the schema as ABSTRACT types (PG-Schema).
//
// For node types the Jaccard test runs over property-key sets (§4.3); for
// edge types it also includes tagged endpoint labels, since edge patterns
// are distinguished by (L, K, R) (Definition 3.6). Everything runs on
// interned IDs: label-set lookup is a hashed ID-tuple probe and the
// similarity test is a sort-merge over uint64 merge keys — no string keys
// are built. Candidates must be bound to s.Tab (rebind shard types with
// RebindRemapped first); candidates not appended to the schema are consumed
// by merging and must not be reused.
func MergeTypes(s *Schema, kind ElementKind, candidates []*Type, theta float64) {
	var unlabeled []*Type
	for _, c := range candidates {
		if c.Labeled() {
			if existing := s.FindByLabelSet(kind, c.LabelIDs()); existing != nil {
				existing.Merge(c)
			} else {
				s.Add(c)
			}
		} else {
			unlabeled = append(unlabeled, c)
		}
	}

	var still []*Type
	for _, c := range unlabeled {
		if target := bestLabeledMatch(s, kind, c, theta); target != nil {
			target.Merge(c)
		} else {
			still = append(still, c)
		}
	}

	// Remaining unlabeled candidates: merge with existing abstract types
	// first (incremental consistency), then with each other.
	abstracts := abstractTypes(s, kind)
	for _, c := range still {
		cKeys := c.MergeKeys()
		merged := false
		for _, a := range abstracts {
			if JaccardU64(a.MergeKeys(), cKeys) >= theta {
				a.Merge(c)
				merged = true
				break
			}
		}
		if !merged {
			c.Abstract = true
			s.Add(c)
			abstracts = append(abstracts, c)
		}
	}
}

// bestLabeledMatch returns the labeled type of the given kind with the
// highest Jaccard similarity ≥ theta against the candidate, breaking ties
// toward more instances.
func bestLabeledMatch(s *Schema, kind ElementKind, c *Type, theta float64) *Type {
	cKeys := c.MergeKeys()
	var best *Type
	bestJ := -1.0
	for _, t := range s.Types(kind) {
		if !t.Labeled() {
			continue
		}
		j := JaccardU64(t.MergeKeys(), cKeys)
		if j < theta {
			continue
		}
		if j > bestJ || (j == bestJ && best != nil && t.Instances > best.Instances) {
			best, bestJ = t, j
		}
	}
	return best
}

func abstractTypes(s *Schema, kind ElementKind) []*Type {
	var out []*Type
	for _, t := range s.Types(kind) {
		if !t.Labeled() {
			out = append(out, t)
		}
	}
	return out
}

// MergeSchemas folds src into dst: src's interned string IDs are remapped
// into dst's symtab (one dense lookup table, built by interning src's
// strings in assignment order so the combined table is deterministic for a
// fixed merge order), then src's types are re-run through the Algorithm 2
// merge — labeled types unify by label set, unlabeled types get a fresh
// chance to attach to labeled types across the shard boundary via the
// Jaccard test, and leftovers stay abstract. Degree evidence (CounterTable,
// keyed by raw endpoint IDs) and property statistics union exactly.
//
// src is consumed: its types are rebound to dst's symtab (some are aliased
// into dst directly), so it must not be read or merged again.
func MergeSchemas(dst, src *Schema, theta float64) {
	if dst.Tab != src.Tab {
		table := NewRemap(src.Tab, dst.Tab)
		for _, t := range src.NodeTypes {
			t.RebindRemapped(dst.Tab, table)
		}
		for _, t := range src.EdgeTypes {
			t.RebindRemapped(dst.Tab, table)
		}
	}
	MergeTypes(dst, NodeKind, src.NodeTypes, theta)
	MergeTypes(dst, EdgeKind, src.EdgeTypes, theta)
}
