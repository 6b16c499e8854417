package schema

import (
	"fmt"
	"slices"
	"sort"

	"pghive/internal/pg"
)

// Symbol interning: every label and property key the pipeline observes is
// mapped once to a dense uint32, and the schema hot path (candidate
// building, type extraction) operates on sorted ID slices and flat tables
// instead of string-keyed maps. IDs are assigned in first-observation
// order, so they are deterministic for a given batch stream and survive
// checkpoint/resume exactly; serializers resolve them back to strings,
// keeping the rendered schema byte-identical to the string-set
// representation. Endpoint IDs are not interned: degree evidence keys its
// rows by the raw pg.ID (see CounterTable).

// Symtab is a pipeline-lifetime intern table: labels and property keys
// share one namespace of dense uint32 IDs. The zero value is not usable;
// call NewSymtab.
type Symtab struct {
	strs  []string
	byStr map[string]uint32

	// pol is the evidence policy every type bound to this table reads
	// (nil = exact evidence). It rides on the symtab because types carry a
	// tab pointer already and the policy must survive checkpoint decode
	// re-binding; it is not serialized — the pipeline re-installs it.
	pol *EvidencePolicy
}

// SetEvidencePolicy installs the evidence policy (nil = exact).
func (t *Symtab) SetEvidencePolicy(p *EvidencePolicy) { t.pol = p }

// Evidence returns the installed evidence policy (nil = exact).
func (t *Symtab) Evidence() *EvidencePolicy { return t.pol }

// NewSymtab returns an empty intern table.
func NewSymtab() *Symtab {
	return &Symtab{byStr: map[string]uint32{}}
}

// Intern returns the dense ID for s, assigning the next free one on first
// sight. Not safe for concurrent use; concurrent readers are fine once all
// strings of a batch are pre-interned (Lookup never writes).
func (t *Symtab) Intern(s string) uint32 {
	if id, ok := t.byStr[s]; ok {
		return id
	}
	id := uint32(len(t.strs))
	t.strs = append(t.strs, s)
	t.byStr[s] = id
	return id
}

// Lookup returns the ID for s without interning.
func (t *Symtab) Lookup(s string) (uint32, bool) {
	id, ok := t.byStr[s]
	return id, ok
}

// Str resolves an ID back to its string.
func (t *Symtab) Str(id uint32) string { return t.strs[id] }

// Strings returns the number of interned strings.
func (t *Symtab) Strings() int { return len(t.strs) }

// maxSymtabStrings bounds the string count of the symtab checkpoint
// section.
const maxSymtabStrings = 1 << 28

// WriteSymtab encodes the intern table onto a wire stream (slice order is
// the ID assignment, so the encoding is deterministic and the decode
// reproduces every ID exactly).
func WriteSymtab(w *pg.WireWriter, t *Symtab) {
	w.Uvarint(uint64(len(t.strs)))
	for _, s := range t.strs {
		w.String(s)
	}
}

// ReadSymtab decodes an intern table written by WriteSymtab.
func ReadSymtab(r *pg.WireReader) (*Symtab, error) {
	n, err := r.Uvarint(maxSymtabStrings)
	if err != nil {
		return nil, fmt.Errorf("symtab: string count: %w", err)
	}
	t := &Symtab{
		strs:  make([]string, 0, min(n, maxPrealloc)),
		byStr: make(map[string]uint32, min(n, maxPrealloc)),
	}
	for i := uint64(0); i < n; i++ {
		s, err := r.String()
		if err != nil {
			return nil, fmt.Errorf("symtab: string %d: %w", i, err)
		}
		if _, dup := t.byStr[s]; dup {
			return nil, fmt.Errorf("symtab: duplicate string %q", s)
		}
		t.byStr[s] = uint32(len(t.strs))
		t.strs = append(t.strs, s)
	}
	return t, nil
}

// IDSet is a sorted slice of unique interned IDs — the flat replacement for
// StringSet on the hot path. The zero value is an empty set.
type IDSet []uint32

// Contains reports membership by binary search.
func (s IDSet) Contains(id uint32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// Insert adds id, keeping the slice sorted; no-op when present.
func (s *IDSet) Insert(id uint32) {
	a := *s
	// Fast paths: appends dominate during candidate building because IDs
	// are assigned in observation order.
	if n := len(a); n == 0 || a[n-1] < id {
		*s = append(a, id)
		return
	}
	i := sort.Search(len(a), func(i int) bool { return a[i] >= id })
	if i < len(a) && a[i] == id {
		return
	}
	a = append(a, 0)
	copy(a[i+1:], a[i:])
	a[i] = id
	*s = a
}

// Union folds other into s in place: a backwards sort-merge that allocates
// only when s lacks capacity for the new elements.
func (s *IDSet) Union(other IDSet) {
	a := *s
	extra := 0
	for i, j := 0, 0; j < len(other); {
		switch {
		case i >= len(a) || a[i] > other[j]:
			extra++
			j++
		case a[i] < other[j]:
			i++
		default:
			i++
			j++
		}
	}
	if extra == 0 {
		return
	}
	n := len(a)
	a = append(a, make(IDSet, extra)...)
	for i, j, k := n-1, len(other)-1, len(a)-1; j >= 0; k-- {
		if i >= 0 && a[i] > other[j] {
			a[k] = a[i]
			i--
		} else {
			if i >= 0 && a[i] == other[j] {
				i--
			}
			a[k] = other[j]
			j--
		}
	}
	*s = a
}

// Equal reports element-wise equality.
func (s IDSet) Equal(other IDSet) bool {
	if len(s) != len(other) {
		return false
	}
	for i, id := range s {
		if other[i] != id {
			return false
		}
	}
	return true
}

// Clone returns a copy.
func (s IDSet) Clone() IDSet {
	if len(s) == 0 {
		return nil
	}
	return append(IDSet(nil), s...)
}

// Strings resolves the set to its sorted string form.
func (s IDSet) Strings(tab *Symtab) []string {
	out := make([]string, len(s))
	for i, id := range s {
		out[i] = tab.Str(id)
	}
	sort.Strings(out)
	return out
}

// JaccardIDs returns |A∩B| / |A∪B| over sorted ID slices without
// allocating; two empty sets have similarity 1. It matches Jaccard on the
// resolved string sets exactly (interning is a bijection).
func JaccardIDs(a, b IDSet) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// JaccardU64 is JaccardIDs over sorted uint64 slices (the tagged merge-key
// form used by the edge-candidate similarity test).
func JaccardU64(a, b []uint64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// hashIDs returns a 64-bit FNV-1a hash of a sorted ID tuple — the label-set
// lookup key that replaces Labels.Key() string building. Collisions are
// tolerated: the index verifies candidates with IDSet.Equal.
func hashIDs(ids IDSet) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, id := range ids {
		h ^= uint64(id & 0xff)
		h *= prime64
		h ^= uint64((id >> 8) & 0xff)
		h *= prime64
		h ^= uint64((id >> 16) & 0xff)
		h *= prime64
		h ^= uint64(id >> 24)
		h *= prime64
	}
	return h
}

// PropTable maps interned property-key IDs to their accumulators via
// parallel slices sorted by ID — binary-search lookups, no string hashing,
// and deterministic iteration for the checkpoint codec.
type PropTable struct {
	ids   IDSet
	stats []*PropStat
}

// Len returns the number of keys.
func (pt *PropTable) Len() int { return len(pt.ids) }

// At returns the i-th (key ID, accumulator) pair in ID order.
func (pt *PropTable) At(i int) (uint32, *PropStat) { return pt.ids[i], pt.stats[i] }

// Get returns the accumulator for id, or nil.
func (pt *PropTable) Get(id uint32) *PropStat {
	i := sort.Search(len(pt.ids), func(i int) bool { return pt.ids[i] >= id })
	if i < len(pt.ids) && pt.ids[i] == id {
		return pt.stats[i]
	}
	return nil
}

// GetOrCreate returns the accumulator for id, inserting an empty
// exact-mode one on first use.
func (pt *PropTable) GetOrCreate(id uint32) *PropStat {
	return pt.getOrCreatePol(id, nil)
}

// getOrCreatePol is GetOrCreate with the evidence policy applied to a
// freshly created accumulator (Type methods pass their tab's policy).
func (pt *PropTable) getOrCreatePol(id uint32, pol *EvidencePolicy) *PropStat {
	i := sort.Search(len(pt.ids), func(i int) bool { return pt.ids[i] >= id })
	if i < len(pt.ids) && pt.ids[i] == id {
		return pt.stats[i]
	}
	p := newPropStatPol(pol)
	pt.ids = append(pt.ids, 0)
	copy(pt.ids[i+1:], pt.ids[i:])
	pt.ids[i] = id
	pt.stats = append(pt.stats, nil)
	copy(pt.stats[i+1:], pt.stats[i:])
	pt.stats[i] = p
	return p
}

// put inserts a decoded accumulator (codec path; id must be absent).
func (pt *PropTable) put(id uint32, p *PropStat) {
	i := sort.Search(len(pt.ids), func(i int) bool { return pt.ids[i] >= id })
	if i < len(pt.ids) && pt.ids[i] == id {
		pt.stats[i] = p
		return
	}
	pt.ids = append(pt.ids, 0)
	copy(pt.ids[i+1:], pt.ids[i:])
	pt.ids[i] = id
	pt.stats = append(pt.stats, nil)
	copy(pt.stats[i+1:], pt.stats[i:])
	pt.stats[i] = p
}

// CounterTable counts per-endpoint edge incidences (the cardinality
// evidence of §4.4) keyed by the raw endpoint pg.ID as a uint64, in both
// evidence modes. Increments append to one pending buffer, and a read
// resolves it under the evidence policy: an exact table normalizes it into
// sorted (key, count) rows with one sort + merge, so candidate building
// never pays per-increment insertion; a sketched table
// (EvidencePolicy.SketchDegrees) folds it into a degreeSketch — see
// evidence.go. Raw keys are global, so tables from different shards merge
// in either mode without a translation.
type CounterTable struct {
	ids     []uint64 // sorted unique endpoint keys (exact mode)
	counts  []uint32 // parallel to ids
	pending []uint64 // unresolved endpoint keys (one entry per Inc)

	sk *degreeSketch // non-nil once the table is sketched
}

// Inc records one incidence for the endpoint key.
func (c *CounterTable) Inc(key uint64) { c.pending = append(c.pending, key) }

// normalize folds the pending increments into the sorted exact rows.
func (c *CounterTable) normalize() {
	if len(c.pending) == 0 {
		return
	}
	p := c.pending
	slices.Sort(p)
	ids := make([]uint64, 0, len(c.ids)+len(p))
	counts := make([]uint32, 0, len(c.ids)+len(p))
	i, j := 0, 0
	for i < len(c.ids) || j < len(p) {
		if j >= len(p) || (i < len(c.ids) && c.ids[i] < p[j]) {
			ids = append(ids, c.ids[i])
			counts = append(counts, c.counts[i])
			i++
			continue
		}
		id := p[j]
		var n uint32
		for j < len(p) && p[j] == id {
			n++
			j++
		}
		if i < len(c.ids) && c.ids[i] == id {
			n += c.counts[i]
			i++
		}
		ids = append(ids, id)
		counts = append(counts, n)
	}
	c.ids, c.counts, c.pending = ids, counts, nil
}

// Merge folds other's exact counts into c.
func (c *CounterTable) Merge(other *CounterTable) {
	c.normalize()
	other.normalize()
	if len(other.ids) == 0 {
		return
	}
	ids := make([]uint64, 0, len(c.ids)+len(other.ids))
	counts := make([]uint32, 0, len(c.ids)+len(other.ids))
	i, j := 0, 0
	for i < len(c.ids) || j < len(other.ids) {
		switch {
		case j >= len(other.ids) || (i < len(c.ids) && c.ids[i] < other.ids[j]):
			ids = append(ids, c.ids[i])
			counts = append(counts, c.counts[i])
			i++
		case i >= len(c.ids) || other.ids[j] < c.ids[i]:
			ids = append(ids, other.ids[j])
			counts = append(counts, other.counts[j])
			j++
		default:
			ids = append(ids, c.ids[i])
			counts = append(counts, c.counts[i]+other.counts[j])
			i++
			j++
		}
	}
	c.ids, c.counts = ids, counts
}

// Add records n incidences for the endpoint key (test/codec helper).
func (c *CounterTable) Add(key uint64, n uint32) {
	for ; n > 0; n-- {
		c.Inc(key)
	}
}

// Distinct returns the number of endpoints with a nonzero count — the
// participation evidence cardinality inference reads — resolving pending
// keys as exact ones unless the table is already sketched.
func (c *CounterTable) Distinct() int { return c.distinct(nil) }

// Max returns the largest per-endpoint count, resolving like Distinct.
func (c *CounterTable) Max() int { return c.max(nil) }

// distinct is Distinct with pending keys resolved under pol; a sketched
// table answers with its HLL estimate.
func (c *CounterTable) distinct(pol *EvidencePolicy) int {
	c.settle(pol)
	if c.sk != nil {
		return int(c.sk.distinct())
	}
	return len(c.ids)
}

// max is Max with pending keys resolved under pol; a sketched table
// answers with its estimated upper bound.
func (c *CounterTable) max(pol *EvidencePolicy) int {
	c.settle(pol)
	if c.sk != nil {
		return c.sk.max()
	}
	m := uint32(0)
	for _, n := range c.counts {
		if n > m {
			m = n
		}
	}
	return int(m)
}
