package schema

import (
	"bytes"
	"fmt"
	"testing"

	"pghive/internal/pg"
)

// evRNG is a tiny deterministic xorshift64 generator so the property tests
// replay identically across runs.
type evRNG uint64

func (r *evRNG) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = evRNG(x)
	return x
}

// genSketchEdges builds a skewed edge stream: endpoint 1 is a heavy source
// hub, everything else is drawn from a bounded ID range, every edge carries
// a globally unique "uid" and a three-valued "flag".
func genSketchEdges(seed int64, n int) []pg.EdgeRecord {
	rng := evRNG(uint64(seed)*2654435761 + 1)
	flags := []string{"a", "b", "c"}
	edges := make([]pg.EdgeRecord, n)
	for i := range edges {
		src := pg.ID(1)
		if rng.next()%4 != 0 { // hub takes ~1/4 of the out-degree mass
			src = pg.ID(2 + rng.next()%257)
		}
		dst := pg.ID(1000 + rng.next()%389)
		edges[i] = pg.EdgeRecord{
			ID: pg.ID(i), Labels: []string{"KNOWS"},
			Src: src, Dst: dst,
			SrcLabels: []string{"Person"}, DstLabels: []string{"Person"},
			Props: pg.Properties{
				"uid":  pg.Str(fmt.Sprintf("u%d-%d", seed, i)),
				"flag": pg.Str(flags[rng.next()%3]),
			},
		}
	}
	return edges
}

// sketchedEdgeSchema observes the edges into a fresh schema running under
// the given evidence policy.
func sketchedEdgeSchema(pol *EvidencePolicy, edges []pg.EdgeRecord) *Schema {
	s := NewSchema()
	s.SetEvidencePolicy(pol)
	t := NewType(s.Tab, EdgeKind)
	for i := range edges {
		t.ObserveEdge(&edges[i], false)
	}
	s.Add(t)
	return s
}

// TestSketchedShardMergeCommutesWithSerial is the shard-merge property of
// the sketched evidence layer: splitting a stream across two schemas (own
// symtabs, as discovery shards have) and folding them together through
// Remap+MergeSchemas must agree with serial accumulation — exactly for the
// HLL distinct estimates (register-max merge is order- and
// partition-invariant), and within sketch error bounds for degree maxima
// and against ground truth for distinct counts.
func TestSketchedShardMergeCommutesWithSerial(t *testing.T) {
	pol := PolicyForBudget(256 << 20)
	for seed := int64(1); seed <= 5; seed++ {
		edges := genSketchEdges(seed, 4000)

		// Ground truth.
		outDeg := map[pg.ID]int{}
		inDeg := map[pg.ID]int{}
		for i := range edges {
			outDeg[edges[i].Src]++
			inDeg[edges[i].Dst]++
		}
		trueMaxOut := 0
		for _, c := range outDeg {
			if c > trueMaxOut {
				trueMaxOut = c
			}
		}

		serial := sketchedEdgeSchema(pol, edges)

		// Interleaved split, merged in both orders.
		var left, right []pg.EdgeRecord
		for i := range edges {
			if i%2 == 0 {
				left = append(left, edges[i])
			} else {
				right = append(right, edges[i])
			}
		}
		merged := sketchedEdgeSchema(pol, left)
		MergeSchemas(merged, sketchedEdgeSchema(pol, right), 0.9)
		reversed := sketchedEdgeSchema(pol, right)
		MergeSchemas(reversed, sketchedEdgeSchema(pol, left), 0.9)

		if len(merged.EdgeTypes) != 1 || len(serial.EdgeTypes) != 1 {
			t.Fatalf("seed %d: %d merged / %d serial edge types, want 1/1",
				seed, len(merged.EdgeTypes), len(serial.EdgeTypes))
		}
		mt, rt, st := merged.EdgeTypes[0], reversed.EdgeTypes[0], serial.EdgeTypes[0]

		// HLL estimates must commute exactly with sharding and merge order.
		if mt.OutDistinct() != st.OutDistinct() || mt.InDistinct() != st.InDistinct() {
			t.Errorf("seed %d: merged distinct (%d out, %d in) != serial (%d out, %d in)",
				seed, mt.OutDistinct(), mt.InDistinct(), st.OutDistinct(), st.InDistinct())
		}
		if rt.OutDistinct() != mt.OutDistinct() || rt.InDistinct() != mt.InDistinct() {
			t.Errorf("seed %d: merge order changed distinct estimates: %d/%d vs %d/%d",
				seed, rt.OutDistinct(), rt.InDistinct(), mt.OutDistinct(), mt.InDistinct())
		}

		// Estimates track ground truth within the sketch's error bounds
		// (±1.6% at this precision; 5% gives 3σ headroom).
		within := func(name string, got, want int) {
			t.Helper()
			lo, hi := float64(want)*0.95, float64(want)*1.05
			if f := float64(got); f < lo || f > hi {
				t.Errorf("seed %d: %s = %d, want %d ±5%%", seed, name, got, want)
			}
		}
		within("serial OutDistinct", st.OutDistinct(), len(outDeg))
		within("serial InDistinct", st.InDistinct(), len(inDeg))

		// Degree maxima: the hub is heavy enough to be monitored everywhere;
		// count-min/space-saving never undercount a monitored key, and the
		// wide tables keep the overcount small.
		for name, got := range map[string]int{
			"serial": st.MaxDegrees().MaxOut,
			"merged": mt.MaxDegrees().MaxOut,
		} {
			if got < trueMaxOut || float64(got) > float64(trueMaxOut)*1.15+2 {
				t.Errorf("seed %d: %s MaxOut = %d, want in [%d, %d*1.15+2]",
					seed, name, got, trueMaxOut, trueMaxOut)
			}
		}

		// Value constraints survive the shard merge: the unique property
		// stays certified, the enum stays closed and exact.
		if !mt.Prop("uid").Values.AllDistinct() {
			t.Errorf("seed %d: merged uid lost its uniqueness certificate", seed)
		}
		if mt.Prop("flag").Values.AllDistinct() {
			t.Errorf("seed %d: three-valued flag certified unique after merge", seed)
		}
		if got := fmt.Sprint(mt.Prop("flag").Values.EnumValues()); got != "[a b c]" {
			t.Errorf("seed %d: merged flag enum = %s, want [a b c]", seed, got)
		}
	}
}

// TestSketchedMergeAdoptsExactSide: merging an exact-evidence shard into a
// sketched one funnels the exact counts through the raw endpoint IDs, so
// nothing is lost crossing modes (the resume-then-change-budget path).
func TestSketchedMergeAdoptsExactSide(t *testing.T) {
	edges := genSketchEdges(7, 1000)
	sketched := sketchedEdgeSchema(PolicyForBudget(256<<20), edges[:500])
	exact := sketchedEdgeSchema(nil, edges[500:])
	if exact.EdgeTypes[0].outDeg.Sketched() {
		t.Fatal("nil-policy schema accumulated sketched degrees")
	}

	outDeg := map[pg.ID]int{}
	for i := range edges {
		outDeg[edges[i].Src]++
	}
	MergeSchemas(sketched, exact, 0.9)
	mt := sketched.EdgeTypes[0]
	if !mt.outDeg.Sketched() {
		t.Fatal("merge dropped sketched mode")
	}
	got := mt.OutDistinct()
	if lo, hi := float64(len(outDeg))*0.95, float64(len(outDeg))*1.05; float64(got) < lo || float64(got) > hi {
		t.Errorf("cross-mode OutDistinct = %d, want %d ±5%%", got, len(outDeg))
	}
}

// FuzzSketchRoundTrip drives the checkpoint codec's evidence branches: a
// schema with exact or sketched degree and value evidence derived from the
// fuzz input must encode → decode → re-encode byte-identically, a Clone
// taken before the encode must encode to the same bytes, and feeding the
// raw input straight into ReadSchema must fail cleanly rather than panic or
// over-allocate. The third policy's 4-hash window spills on any input of
// five or more edges, so the bottom-k sample's codec is fuzzed too; the
// seed reaches the endpoint IDs, so exact degree rows see negative keys and
// keys above 2^32.
func FuzzSketchRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, int64(1))
	f.Add([]byte{0xff, 0x00, 0x7f}, int64(42))
	f.Add([]byte{}, int64(-9))
	smallFront := PolicyForBudget(64 << 20)
	smallFront.DupFrontCap = 4
	f.Fuzz(func(t *testing.T, raw []byte, seed int64) {
		// Adversarial decode first: arbitrary bytes must never panic.
		if s, err := ReadSchema(pg.NewWireReader(bytes.NewReader(raw))); err == nil && s == nil {
			t.Fatal("ReadSchema returned nil schema with nil error")
		}

		// Deterministic sketched schema from the input.
		n := len(raw)%64 + 2
		edges := genSketchEdges(seed, n)
		for i := range raw {
			edges[i%n].Src = pg.ID(raw[i]) // fold input bytes into the key space
		}
		edges[0].Dst = pg.ID(seed)
		edges[n-1].Src = pg.ID(seed) * -(1 << 33)
		for _, pol := range []*EvidencePolicy{nil, PolicyForBudget(64 << 20), smallFront} {
			s := sketchedEdgeSchema(pol, edges)
			clone := s.Clone()
			first := encodeSchema(t, s)
			decoded, err := ReadSchema(pg.NewWireReader(bytes.NewReader(first)))
			if err != nil {
				t.Fatalf("decode of a fresh checkpoint failed: %v", err)
			}
			if second := encodeSchema(t, decoded); !bytes.Equal(first, second) {
				t.Fatalf("checkpoint not stable under decode/re-encode: %d vs %d bytes",
					len(first), len(second))
			}
			if got := encodeSchema(t, clone); !bytes.Equal(first, got) {
				t.Fatalf("clone encodes to %d bytes, the original to %d", len(got), len(first))
			}

			// The decoded evidence answers like the original.
			dt, ot := decoded.EdgeTypes[0], s.EdgeTypes[0]
			if dt.OutDistinct() != ot.OutDistinct() || dt.MaxDegrees() != ot.MaxDegrees() {
				t.Fatal("decoded sketch state answers differently from the original")
			}
		}
	})
}
