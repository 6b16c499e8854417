package schema

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"pghive/internal/pg"
	"pghive/internal/sketch"
)

func TestValueStatAllDistinct(t *testing.T) {
	s := NewValueStat()
	for i := 0; i < 100; i++ {
		s.Observe(pg.Int(int64(i)))
	}
	if !s.AllDistinct() {
		t.Error("100 distinct ints should be AllDistinct")
	}
	s.Observe(pg.Int(5))
	if s.AllDistinct() {
		t.Error("duplicate should clear AllDistinct")
	}
	// Further observations keep it cleared.
	s.Observe(pg.Int(999))
	if s.AllDistinct() {
		t.Error("AllDistinct must stay false")
	}
}

func TestValueStatKindDisambiguation(t *testing.T) {
	// Int(1) and Str("1") render identically but differ in kind; they must
	// not count as duplicates.
	s := NewValueStat()
	s.Observe(pg.Int(1))
	s.Observe(pg.Str("1"))
	if !s.AllDistinct() {
		t.Error("same text, different kinds should stay distinct")
	}
}

func TestValueStatEnum(t *testing.T) {
	s := NewValueStat()
	for i := 0; i < 50; i++ {
		s.Observe(pg.Str([]string{"red", "green", "blue"}[i%3]))
	}
	enum := s.EnumValues()
	want := []string{"blue", "green", "red"}
	if len(enum) != 3 || enum[0] != want[0] || enum[1] != want[1] || enum[2] != want[2] {
		t.Errorf("EnumValues = %v, want %v", enum, want)
	}
}

func TestValueStatEnumOverflow(t *testing.T) {
	s := NewValueStat()
	for i := 0; i <= EnumCap; i++ {
		s.Observe(pg.Str(fmt.Sprintf("v%02d", i)))
	}
	if s.EnumValues() != nil {
		t.Errorf("more than %d distinct values should not be an enum", EnumCap)
	}
}

func TestValueStatEmptyEnum(t *testing.T) {
	if NewValueStat().EnumValues() != nil {
		t.Error("empty stat should have no enum")
	}
}

func TestValueStatNumRange(t *testing.T) {
	s := NewValueStat()
	if _, _, ok := s.NumRange(); ok {
		t.Error("empty stat should have no range")
	}
	s.Observe(pg.Int(10))
	s.Observe(pg.Float(-2.5))
	s.Observe(pg.Int(100))
	s.Observe(pg.Str("not numeric"))
	min, max, ok := s.NumRange()
	if !ok || min != -2.5 || max != 100 {
		t.Errorf("range = (%v, %v, %v), want (-2.5, 100, true)", min, max, ok)
	}
}

func TestValueStatMergeDetectsCrossBatchDuplicate(t *testing.T) {
	a, b := NewValueStat(), NewValueStat()
	a.Observe(pg.Int(1))
	a.Observe(pg.Int(2))
	b.Observe(pg.Int(2)) // duplicate across batches
	b.Observe(pg.Int(3))
	a.Merge(b)
	if a.AllDistinct() {
		t.Error("cross-batch duplicate must clear AllDistinct")
	}
}

func TestValueStatMergeKeepsDistinct(t *testing.T) {
	a, b := NewValueStat(), NewValueStat()
	a.Observe(pg.Int(1))
	b.Observe(pg.Int(2))
	a.Merge(b)
	if !a.AllDistinct() {
		t.Error("disjoint values should stay distinct after merge")
	}
}

func TestValueStatMergeCombinesRangesAndEnums(t *testing.T) {
	a, b := NewValueStat(), NewValueStat()
	a.Observe(pg.Int(5))
	a.Observe(pg.Str("x"))
	b.Observe(pg.Int(-5))
	b.Observe(pg.Str("y"))
	a.Merge(b)
	min, max, ok := a.NumRange()
	if !ok || min != -5 || max != 5 {
		t.Errorf("merged range = (%v, %v), want (-5, 5)", min, max)
	}
	if len(a.EnumValues()) != 4 {
		t.Errorf("merged enum = %v, want 4 values", a.EnumValues())
	}
}

func TestValueStatMergePropagatesDup(t *testing.T) {
	a, b := NewValueStat(), NewValueStat()
	b.Observe(pg.Int(1))
	b.Observe(pg.Int(1))
	a.Merge(b)
	if a.AllDistinct() {
		t.Error("merging a dup-containing stat must clear AllDistinct")
	}
}

func TestValueStatQuickDistinctInvariant(t *testing.T) {
	// AllDistinct ⟺ no rendered (kind, value) pair repeats.
	f := func(vals []int16) bool {
		s := NewValueStat()
		seen := map[int16]bool{}
		hasDup := false
		for _, v := range vals {
			if seen[v] {
				hasDup = true
			}
			seen[v] = true
			s.Observe(pg.Int(int64(v)))
		}
		return s.AllDistinct() == !hasDup
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCardinalityStringParticipation(t *testing.T) {
	tests := []struct {
		card     Cardinality
		srcTotal bool
		want     string
	}{
		{CardZeroOne, false, "0:1"},
		{CardZeroOne, true, "1:1"},
		{CardZeroN, false, "0:N"},
		{CardZeroN, true, "1:N"},
		{CardNOne, true, "N:1"},
		{CardMN, true, "M:N"},
		{CardUnknown, true, "?"},
	}
	for _, tc := range tests {
		e := &EdgeTypeDef{Cardinality: tc.card, SrcTotal: tc.srcTotal}
		if got := e.CardinalityString(); got != tc.want {
			t.Errorf("CardinalityString(%v, total=%v) = %q, want %q", tc.card, tc.srcTotal, got, tc.want)
		}
	}
}

// sketchedValues returns an empty sketched accumulator with a k-hash
// window and bottom-k sample, fed the given value hashes in order.
func sketchedValues(k int, hashes ...uint64) *ValueStat {
	s := newValueStatPol(&EvidencePolicy{SketchValues: true, DupFrontCap: k})
	for _, h := range hashes {
		s.n++
		s.observeHashSketched(h)
	}
	return s
}

// retainedHashes returns what a sketched accumulator checks duplicates
// against — its window, or its sample once spilled — ascending.
func retainedHashes(s *ValueStat) []uint64 {
	if s.frontOver {
		return slices.Clone(s.sample)
	}
	return sortedHashes(s.front)
}

// TestSketchedMergeOrderIndependent pins the sketched merge as a set
// operation. A window {40, 5, 6} merged into the spilled sample
// {10, 20, 30, 40} shares 40, so every merge must report the duplicate —
// whatever order the window's map yields 40, 5 and 6 in (a hash-by-hash
// replay that let 5 and 6 evict 40 first missed it). Then, over seeded
// windows and samples: a duplicate is reported exactly when the two sides'
// retained hashes intersect; otherwise two windows that fit in k stay one
// window, and anything larger keeps the k smallest hashes of the union and
// an HLL over every hash either side counted. Both merge orders agree.
func TestSketchedMergeOrderIndependent(t *testing.T) {
	for i := 0; i < 200; i++ {
		s := sketchedValues(4, 10, 20, 30, 40, 50)
		if !s.frontOver || !slices.Equal(s.sample, []uint64{10, 20, 30, 40}) {
			t.Fatalf("setup: spilled=%t sample=%v, want the sample [10 20 30 40]", s.frontOver, s.sample)
		}
		s.Merge(sketchedValues(4, 40, 5, 6))
		if !s.dup || s.AllDistinct() {
			t.Fatalf("merge %d missed the duplicate hash 40", i)
		}
	}

	rng := evRNG(0x5eed)
	const k = 8
	for trial := 0; trial < 2000; trial++ {
		draw := func() []uint64 {
			n := int(rng.next() % (3 * k))
			seen := map[uint64]bool{}
			var hs []uint64
			for len(hs) < n {
				if h := 1 + rng.next()%256; !seen[h] {
					seen[h] = true
					hs = append(hs, h)
				}
			}
			return hs
		}
		ha, hb := draw(), draw()
		union := map[uint64]bool{}
		want := sketch.NewHLL(sketch.DefaultHLLPrecision)
		for _, h := range append(slices.Clone(ha), hb...) {
			union[h] = true
			want.Add(h)
		}
		ra, rb := retainedHashes(sketchedValues(k, ha...)), retainedHashes(sketchedValues(k, hb...))
		shared := false
		for _, h := range ra {
			shared = shared || slices.Contains(rb, h)
		}
		kept := make([]uint64, 0, len(union))
		for h := range union {
			kept = append(kept, h)
		}
		slices.Sort(kept)
		windows := len(ha)+len(hb) <= k

		for _, order := range [][2][]uint64{{ha, hb}, {hb, ha}} {
			s := sketchedValues(k, order[0]...)
			s.Merge(sketchedValues(k, order[1]...))
			if s.dup != shared {
				t.Fatalf("trial %d: dup = %t, retained %v and %v share a hash: %t", trial, s.dup, ra, rb, shared)
			}
			if shared {
				continue
			}
			if s.frontOver == windows {
				t.Fatalf("trial %d: spilled = %t merging %d and %d hashes into k = %d", trial, s.frontOver, len(ha), len(hb), k)
			}
			got, wantKept := retainedHashes(s), kept
			if !windows {
				wantKept = kept[:k]
				if s.hll.Estimate() != want.Estimate() {
					t.Fatalf("trial %d: merged HLL estimate %d, want %d", trial, s.hll.Estimate(), want.Estimate())
				}
			}
			if !slices.Equal(got, wantKept) {
				t.Fatalf("trial %d: merged %v into %v kept %v, want %v", trial, order[1], order[0], got, wantKept)
			}
		}
	}
}

// sampleOracle is the sketched uniqueness state machine over a map-based
// sample: the window map becomes the bottom-k sample at the spill and is
// rescanned for the new maximum on every eviction. Slow and plainly right,
// it is the reference the sorted-slice sample must match observation for
// observation.
type sampleOracle struct {
	k         int
	dup       bool
	frontOver bool
	front     map[uint64]struct{}
	frontMax  uint64
	hll       *sketch.HLL
	n         uint64
}

func (o *sampleOracle) observe(h uint64) {
	o.n++
	if o.dup {
		return
	}
	if o.frontOver {
		o.hll.Add(h)
		o.check(h)
		return
	}
	if _, seen := o.front[h]; seen {
		o.dup, o.front, o.hll = true, nil, nil
		return
	}
	if len(o.front) >= o.k {
		o.frontOver = true
		o.hll = sketch.NewHLL(sketch.DefaultHLLPrecision)
		for x := range o.front {
			o.hll.Add(x)
			o.frontMax = max(o.frontMax, x)
		}
		o.hll.Add(h)
		o.check(h)
		return
	}
	o.front[h] = struct{}{}
}

func (o *sampleOracle) check(h uint64) {
	if _, seen := o.front[h]; seen {
		o.dup, o.front, o.hll = true, nil, nil
		return
	}
	if h >= o.frontMax {
		return
	}
	o.front[h] = struct{}{}
	if len(o.front) > o.k {
		delete(o.front, o.frontMax)
		o.frontMax = 0
		for x := range o.front {
			o.frontMax = max(o.frontMax, x)
		}
	}
}

func (o *sampleOracle) allDistinct() bool {
	switch {
	case o.dup:
		return false
	case !o.frontOver:
		return true
	}
	return float64(o.hll.Estimate()) >= (1-3*o.hll.RelativeError())*float64(o.n)
}

func encodeValueStat(s *ValueStat) []byte {
	var buf bytes.Buffer
	w := pg.NewWireWriter(&buf)
	s.encode(w)
	if err := w.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// TestSketchedObserveMatchesOracle runs seeded value streams — unique ones
// far past the spill and ones whose first repeat lands before the spill,
// in the sample or outside it — through Observe and through sampleOracle:
// dup, AllDistinct and the encoded accumulator must match throughout.
func TestSketchedObserveMatchesOracle(t *testing.T) {
	rng := evRNG(0x07ac1e)
	for _, k := range []int{4, 16, 64} {
		for _, spread := range []uint64{uint64(k) * 8, uint64(k) * 256, 1 << 40} {
			for seed := 0; seed < 12; seed++ {
				s := newValueStatPol(&EvidencePolicy{SketchValues: true, DupFrontCap: k})
				o := &sampleOracle{k: k, front: map[uint64]struct{}{}}
				n := k/2 + int(rng.next()%uint64(40*k))
				for i := 0; i < n; i++ {
					v := pg.Int(int64(rng.next() % spread))
					s.Observe(v)
					o.observe(hashValue(v))
					if i%37 != 0 && i != n-1 {
						continue
					}
					if s.dup != o.dup || s.AllDistinct() != o.allDistinct() {
						t.Fatalf("k=%d spread=%d seed=%d after %d values: dup %t / %t, AllDistinct %t / %t",
							k, spread, seed, i+1, s.dup, o.dup, s.AllDistinct(), o.allDistinct())
					}
					want := *s
					want.dup, want.frontOver, want.n, want.hll = o.dup, o.frontOver, o.n, o.hll
					want.front, want.sample = nil, nil
					switch {
					case o.frontOver:
						want.sample = sortedHashes(o.front)
					default:
						want.front = o.front
					}
					if !bytes.Equal(encodeValueStat(s), encodeValueStat(&want)) {
						t.Fatalf("k=%d spread=%d seed=%d after %d values: encoding differs from the oracle's",
							k, spread, seed, i+1)
					}
				}
			}
		}
	}
}
