package schema

import (
	"maps"
	"slices"
	"sort"

	"pghive/internal/pg"
	"pghive/internal/sketch"
)

// Value-evidence limits.
const (
	// EnumCap is the maximum number of distinct values a property may have
	// to be reported as an enumeration.
	EnumCap = 16
	// distinctHashCap bounds the memory spent checking uniqueness in exact
	// mode; beyond it, uniqueness is reported as unknown (not a key).
	distinctHashCap = 1 << 20
	// DefaultEnumByteCap bounds the total rendered bytes retained for enum
	// detection — a handful of huge values must not pin megabytes just
	// because they number fewer than EnumCap.
	DefaultEnumByteCap = 4096
	// DefaultDupFrontCap is the sketched-mode exact window: the first
	// DupFrontCap distinct values are checked for duplicates exactly;
	// beyond it uniqueness is certified statistically by the HLL.
	DefaultDupFrontCap = 1024
)

// ValueStat accumulates value-level evidence for one property: enough to
// decide key constraints (all values distinct and present on every
// instance), enumerations (few distinct values), and numeric/temporal
// ranges. It extends PG-HIVE beyond the paper's §4.4 with the future-work
// items it names: key constraints (intro contribution list) and
// enumerations/bounded ranges.
//
// Two modes. Exact (default): a hash set of observed values certifies
// uniqueness until distinctHashCap. Sketched (EvidencePolicy.SketchValues):
// a bounded exact "dup front" window catches early duplicates, then spills
// into a HyperLogLog whose estimate-vs-count ratio decides uniqueness —
// constant memory per property regardless of stream size.
type ValueStat struct {
	// Exact mode: hashes holds hashes of observed values while all are
	// distinct; once a duplicate appears the set is dropped.
	hashes map[uint64]struct{}
	// dup reports a duplicate value was observed (both modes; in sketched
	// mode only duplicates caught by the front window set it).
	dup bool
	// overflow reports the exact-mode distinct tracking cap was hit.
	overflow bool

	// Sketched mode state. Before the spill, front holds every value hash
	// seen and duplicate detection is exact. After the spill, sample holds
	// a bottom-k hash sample in ascending order (the k smallest hashes
	// seen, k = DupFrontCap): every hash is checked against it, so a
	// duplicated value is still caught whenever its hash lands in the
	// sample — a uniform ~k/distinct fraction of values, covering the whole
	// stream rather than just its prefix. The HLL certificate alone cannot
	// separate 100% distinct from 98% distinct; the sample can.
	sketched  bool
	front     map[uint64]struct{} // exact window until the spill
	sample    []uint64            // ascending bottom-k sample after it
	frontOver bool                // window spilled into the HLL and sample
	hll       *sketch.HLL         // allocated at spill time
	n         uint64              // total observations

	// enum holds up to EnumCap+1 distinct rendered values, bounded in
	// total retained bytes; enumOver records that the byte cap dropped it.
	enum      map[string]struct{}
	enumBytes int
	enumOver  bool

	// Numeric and temporal ranges (valid when the counts are nonzero).
	numCount int
	minNum   float64
	maxNum   float64

	// pol supplies the caps; nil means the package defaults. Not
	// serialized — Schema.SetEvidencePolicy re-installs it after decode.
	pol *EvidencePolicy
}

// NewValueStat returns an empty exact-mode accumulator.
func NewValueStat() *ValueStat {
	return &ValueStat{
		hashes: map[uint64]struct{}{},
		enum:   map[string]struct{}{},
	}
}

// newValueStatPol returns an empty accumulator in the mode pol selects.
func newValueStatPol(pol *EvidencePolicy) *ValueStat {
	if pol == nil || !pol.SketchValues {
		s := NewValueStat()
		s.pol = pol
		return s
	}
	return &ValueStat{
		sketched: true,
		front:    map[uint64]struct{}{},
		enum:     map[string]struct{}{},
		pol:      pol,
	}
}

// Observe folds one value in.
func (s *ValueStat) Observe(v pg.Value) {
	h := hashValue(v)
	if s.sketched {
		s.n++
		s.observeHashSketched(h)
	} else if !s.dup && !s.overflow {
		if _, seen := s.hashes[h]; seen {
			s.markDup()
		} else if len(s.hashes) >= distinctHashCap {
			s.overflow = true
			s.hashes = nil
		} else {
			s.hashes[h] = struct{}{}
		}
	}

	// Render the value only while the enum set is still live — rendering
	// per observation was the hot-path cost the interned core left behind.
	if s.enum != nil && len(s.enum) <= EnumCap {
		s.addEnum(v.String())
	}

	switch v.Kind() {
	case pg.KindInt, pg.KindFloat:
		f := v.AsFloat()
		if s.numCount == 0 || f < s.minNum {
			s.minNum = f
		}
		if s.numCount == 0 || f > s.maxNum {
			s.maxNum = f
		}
		s.numCount++
	}
}

// markDup records an observed duplicate and drops the uniqueness state it
// settles: the hash set, window, sample and HLL.
func (s *ValueStat) markDup() {
	s.dup = true
	s.hashes, s.front, s.sample, s.hll = nil, nil, nil, nil
}

// observeHashSketched advances the sketched-mode uniqueness state machine
// by one value hash.
func (s *ValueStat) observeHashSketched(h uint64) {
	if s.dup {
		return
	}
	if !s.frontOver {
		if _, seen := s.front[h]; seen {
			s.markDup()
			return
		}
		if len(s.front) < s.pol.dupFrontCap() {
			s.front[h] = struct{}{}
			return
		}
		s.spillFront()
	}
	s.hll.Add(h)
	s.sampleCheck(h)
}

// spillFront feeds the exact window into a freshly allocated HLL and keeps
// its k smallest hashes, ascending, as the initial bottom-k sample. Lazy
// allocation matters: short-lived candidate accumulators rarely exceed the
// window, so they never pay for an HLL.
func (s *ValueStat) spillFront() {
	s.frontOver = true
	if s.hll == nil {
		s.hll = sketch.NewHLL(s.pol.hllPrecision())
	}
	s.sample = sortedHashes(s.front)
	s.front = nil
	for _, h := range s.sample {
		s.hll.Add(h)
	}
	if k := s.pol.dupFrontCap(); len(s.sample) > k {
		s.sample = s.sample[:k]
	}
}

// sampleCheck runs one hash through the post-spill bottom-k sample: a hash
// already in the sample is a duplicate value (64-bit hash equality is the
// same evidence exact mode accepts); a hash below the sample's largest is
// inserted in order and the largest drops off, so the sample stays the k
// smallest hashes of the stream. Most hashes fail the first comparison;
// the rest pay one binary search, and an insert (which moves at most k
// words) happens only ~k·ln(n/k) times over a stream. An empty sample —
// the overflow conversion's — fills from the hashes that follow it.
func (s *ValueStat) sampleCheck(h uint64) {
	k := s.pol.dupFrontCap()
	if n := len(s.sample); n >= k && h > s.sample[n-1] {
		return
	}
	i, found := slices.BinarySearch(s.sample, h)
	switch {
	case found:
		s.markDup()
	case i >= k:
	case len(s.sample) < k:
		s.sample = slices.Insert(s.sample, i, h)
	default:
		s.sample = s.sample[:k]
		copy(s.sample[i+1:], s.sample[i:k-1])
		s.sample[i] = h
	}
}

// addEnum inserts a rendered value, enforcing the byte cap.
func (s *ValueStat) addEnum(rendered string) {
	if _, ok := s.enum[rendered]; ok {
		return
	}
	if s.enumBytes+len(rendered) > s.pol.enumByteCap() {
		s.enumOver = true
		s.enum = nil
		s.enumBytes = 0
		return
	}
	s.enum[rendered] = struct{}{}
	s.enumBytes += len(rendered)
}

// convertToSketched switches an exact accumulator into sketched mode: its
// hash set, all distinct, becomes the exact window, spilled at once when it
// outgrows it. like supplies the policy when s has none (cross-mode merges
// only happen when one side was built before the policy was known).
func (s *ValueStat) convertToSketched(like *ValueStat) {
	if s.sketched {
		return
	}
	s.sketched = true
	if s.pol == nil {
		s.pol = like.pol
	}
	hashes := s.hashes
	s.hashes = nil
	switch {
	case s.overflow:
		// The exact set was already dropped: certify statistically from
		// here with an empty HLL and sample (conservatively under-estimates,
		// so AllDistinct stays false — same answer overflow gave).
		s.overflow = false
		s.frontOver = true
		s.hll = sketch.NewHLL(s.pol.hllPrecision())
	case !s.dup:
		s.n = uint64(len(hashes))
		s.front = hashes
		if len(hashes) > s.pol.dupFrontCap() {
			s.spillFront()
		}
	}
}

// Merge folds other into s. Uniqueness across two accumulators cannot be
// certified from hashes of disjoint batches alone, so the merged set keeps
// checking against the union while both sides are still duplicate-free.
// Cross-mode merges adopt the sketched side (an empty receiver adopts the
// other's mode outright).
func (s *ValueStat) Merge(other *ValueStat) {
	if s.sketched != other.sketched {
		if other.sketched {
			s.convertToSketched(other)
		} else {
			// s sketched, other exact: convert other in place (it is
			// consumed by the merge contract).
			other.convertToSketched(s)
		}
	}

	if s.sketched {
		s.n += other.n
		if other.dup {
			s.markDup()
		}
		if !s.dup {
			s.mergeSketched(other)
		}
	} else {
		if other.dup {
			s.markDup()
		}
		if other.overflow {
			s.overflow = true
			s.hashes = nil
		}
		if !s.dup && !s.overflow {
			for h := range other.hashes {
				if _, seen := s.hashes[h]; seen {
					s.markDup()
					break
				}
				if len(s.hashes) >= distinctHashCap {
					s.overflow = true
					s.hashes = nil
					break
				}
				s.hashes[h] = struct{}{}
			}
		}
	}

	if other.enumOver {
		s.enumOver = true
		s.enum = nil
		s.enumBytes = 0
	}
	if s.enum != nil {
		for v := range other.enum {
			if len(s.enum) > EnumCap {
				break
			}
			s.addEnum(v)
		}
	}
	if other.numCount > 0 {
		if s.numCount == 0 || other.minNum < s.minNum {
			s.minNum = other.minNum
		}
		if s.numCount == 0 || other.maxNum > s.maxNum {
			s.maxNum = other.maxNum
		}
		s.numCount += other.numCount
	}
}

// mergeSketched folds other's sketched uniqueness evidence into s's as one
// set merge, whatever order either side's hashes come in. A hash on both
// sides (window or sample) means each side observed a value with it, so
// the merged stream holds a duplicate — the cross-batch and cross-shard
// analogue of exact mode's hash-intersection check. Otherwise two windows
// that fit in k together stay one exact window; past that, or once either
// side has spilled, the HLL counts every hash and the sample becomes the k
// smallest hashes of the union.
func (s *ValueStat) mergeSketched(other *ValueStat) {
	k := s.pol.dupFrontCap()
	if !s.frontOver && !other.frontOver {
		for h := range other.front {
			if _, seen := s.front[h]; seen {
				s.markDup()
				return
			}
		}
		if len(s.front)+len(other.front) <= k {
			maps.Copy(s.front, other.front)
			return
		}
	}
	if !s.frontOver {
		s.spillFront()
	}
	theirs := other.sample
	if other.frontOver {
		if other.hll != nil {
			if err := s.hll.Merge(other.hll); err != nil {
				panic("schema: value sketch merge: " + err.Error())
			}
		}
	} else {
		theirs = sortedHashes(other.front)
		for _, h := range theirs {
			s.hll.Add(h)
		}
	}
	var dup bool
	if s.sample, dup = mergeBottomK(s.sample, theirs, k); dup {
		s.markDup()
	}
}

// sortedHashes returns a hash set's members in ascending order.
func sortedHashes(set map[uint64]struct{}) []uint64 {
	hashes := make([]uint64, 0, len(set))
	for h := range set {
		hashes = append(hashes, h)
	}
	slices.Sort(hashes)
	return hashes
}

// mergeBottomK returns the k smallest hashes of a ∪ b (both ascending) in
// a's storage, or reports that a and b share a hash. It merges from the top
// down, so every write lands above the next unread element of a; once b is
// used up, the rest of a is already in place — a merge of a few hashes
// into a full sample touches only the entries at or above them.
func mergeBottomK(a, b []uint64, k int) ([]uint64, bool) {
	n := min(len(a)+len(b), k)
	i, j := len(a)-1, len(b)-1
	if n > len(a) {
		a = slices.Grow(a, n-len(a))[:n]
	}
	for w := i + j + 1; j >= 0; w-- {
		var h uint64
		switch {
		case i >= 0 && a[i] == b[j]:
			return nil, true
		case i >= 0 && a[i] > b[j]:
			h = a[i]
			i--
		default:
			h = b[j]
			j--
		}
		if w < n {
			a[w] = h
		}
	}
	return a[:n], false
}

// AllDistinct reports whether every observed value was distinct. Exact
// mode: false when unknown due to overflow. Sketched mode: exact while
// the front window holds, then statistical — the HLL estimate must reach
// the observation count within three standard errors (a single duplicate
// among millions is below sketch resolution by construction).
func (s *ValueStat) AllDistinct() bool {
	if s.sketched {
		if s.dup {
			return false
		}
		if !s.frontOver {
			return true // the window caught every duplicate exactly
		}
		if s.hll == nil || s.n == 0 {
			return false
		}
		est := float64(s.hll.Estimate())
		return est >= (1-3*s.hll.RelativeError())*float64(s.n)
	}
	return !s.dup && !s.overflow
}

// DistinctEstimate returns the (possibly approximate) number of distinct
// values observed while uniqueness tracking was live, 0 once it was
// abandoned after a duplicate.
func (s *ValueStat) DistinctEstimate() uint64 {
	switch {
	case s.sketched && !s.frontOver:
		return uint64(len(s.front))
	case s.sketched:
		if s.hll == nil {
			return 0
		}
		return s.hll.Estimate()
	default:
		return uint64(len(s.hashes))
	}
}

// EnumValues returns the sorted distinct values if the property looks like
// an enumeration (at most EnumCap distinct values within the byte cap),
// else nil.
func (s *ValueStat) EnumValues() []string {
	if s.enumOver || len(s.enum) == 0 || len(s.enum) > EnumCap {
		return nil
	}
	out := make([]string, 0, len(s.enum))
	for v := range s.enum {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// NumRange returns the observed numeric range and whether any numeric
// value was seen.
func (s *ValueStat) NumRange() (min, max float64, ok bool) {
	return s.minNum, s.maxNum, s.numCount > 0
}

// MemBytes estimates the accumulator's retained size (map entries are
// approximated at 16 bytes over the key payload; sample entries are the
// 8-byte hashes themselves).
func (s *ValueStat) MemBytes() int64 {
	b := int64(96) // struct
	b += int64(len(s.hashes)+len(s.front))*24 + int64(len(s.sample))*8
	if s.hll != nil {
		b += int64(s.hll.MemBytes())
	}
	b += int64(s.enumBytes) + int64(len(s.enum))*32
	return b
}
