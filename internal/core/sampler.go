package core

import (
	"pghive/internal/lsh"
	"pghive/internal/pg"
	"pghive/internal/schema"
)

// sampler decides which property-value observations enter the data-type
// sample (§4.4: 10 % of a property's values, and at least SampleMin). The
// decision is a pure function of (element kind, key, per-key observation
// ordinal, seed). Ordinals are the serial run's: per key, counting over a
// batch's clusters in order, then over each cluster's members in order
// (sampleCandidates). Candidates are observed in parallel without sampling;
// the ordinals are then reserved serially, one counter update per
// (candidate, key), so no observer touches shared state and the sample does
// not depend on goroutine scheduling or Parallelism.
//
// Counters are keyed by (kind tag, interned key ID) packed into one uint64,
// so the hot path never concatenates a "n:"/"e:" prefix onto the key; the
// decision hash streams the same prefix and key bytes the concatenated form
// hashed, keeping every decision identical to the string-keyed
// implementation. A sampler is not safe for concurrent use, except for
// sampled, which only reads its configuration.
type sampler struct {
	counts map[uint64]int
	frac   float64
	min    int
	seed   uint64
}

// sampleKind names one element kind's ordinal sequences: the counter-key
// tag and the hash prefix.
type sampleKind struct {
	tag    uint64
	prefix string
}

// samplerEdgeTag marks edge-property counter keys; node keys use the bare
// interned ID (tag 0).
const samplerEdgeTag = uint64(1) << 32

var (
	sampleNodes = sampleKind{0, "n:"}
	sampleEdges = sampleKind{samplerEdgeTag, "e:"}
)

func newSampler(frac float64, min int, seed int64) *sampler {
	return &sampler{
		counts: map[uint64]int{},
		frac:   frac,
		min:    min,
		seed:   uint64(seed),
	}
}

// reserve hands out the key's next n ordinals and returns the first.
func (s *sampler) reserve(kind sampleKind, id uint32, n int) int {
	ck := kind.tag | uint64(id)
	c := s.counts[ck]
	s.counts[ck] = c + n
	return c
}

// sampled reports whether the key's observation with the given ordinal
// joins the sample; h is the key's keyHash.
func (s *sampler) sampled(h uint64, ordinal int) bool {
	return ordinal < s.min || s.uniform(h, ordinal) < s.frac
}

// sampleCandidates fills the data-type samples (PropStat.SampleKinds) of
// one kind's freshly observed candidates, which were built from clusters in
// order (observing leaves the sample empty). Each (candidate, key) reserves
// PropStat.Count ordinals, serially in candidate order; then, per candidate
// in parallel, a key whose values share one kind adds the count of sampled
// ordinals in its range to that kind, and a key with mixed kinds walks the
// members again in order. props returns a member's properties.
func (s *sampler) sampleCandidates(kind sampleKind, cands []*schema.Type, clusters []lsh.Cluster, props func(i int) pg.Properties, workers int) {
	first := make([]int, len(cands)) // candidate → its keys' offset in starts
	var starts []int
	for ci, t := range cands {
		first[ci] = len(starts)
		for k := 0; k < t.NumProps(); k++ {
			id, ps := t.PropAt(k)
			starts = append(starts, s.reserve(kind, id, ps.Count))
		}
	}
	parmap(len(cands), workers, func(ci int) {
		t := cands[ci]
		for k := 0; k < t.NumProps(); k++ {
			id, ps := t.PropAt(k)
			key := t.Tab().Str(id)
			h := keyHash(kind.prefix, key)
			ord := starts[first[ci]+k]
			if len(ps.Kinds) == 1 {
				n := 0
				for end := ord + ps.Count; ord < end; ord++ {
					if s.sampled(h, ord) {
						n++
					}
				}
				if n > 0 {
					for vk := range ps.Kinds {
						ps.SampleKinds[vk] += n
					}
				}
				continue
			}
			for _, i := range clusters[ci].Members {
				if v, ok := props(i)[key]; ok {
					if s.sampled(h, ord) {
						ps.SampleKinds[v.Kind()]++
					}
					ord++
				}
			}
		}
	})
}

// FNV-1a parameters (hash/fnv's 64-bit variant, inlined so the decision
// path allocates nothing).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// keyHash is the decision hash's state after the kind prefix and the key:
// they stream through the hash back to back, so the digest — and every
// sampling decision — equals the former prefix+key concatenation's.
func keyHash(prefix, key string) uint64 {
	return fnvString(fnvString(fnvOffset64, prefix), key)
}

// uniform continues the key's hash h with (ordinal, seed) and maps it to a
// float in [0, 1).
func (s *sampler) uniform(h uint64, ordinal int) float64 {
	o := uint64(ordinal)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(o >> (8 * i)))
		h *= fnvPrime64
	}
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(s.seed >> (8 * i)))
		h *= fnvPrime64
	}
	x := splitmix64(h)
	return float64(x>>11) / float64(1<<53)
}

// splitmix64 scrambles the hash into well-distributed bits.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
