package schema

import (
	"fmt"
	"math"

	"pghive/internal/pg"
	"pghive/internal/sketch"
)

// Memory-bounded evidence (ROADMAP item 5): exact per-endpoint degree
// tables and exact distinct-value hash sets grow with the graph, so a
// bounded-memory run swaps them for sketches — HyperLogLog for distinct
// counts, a space-saving top-k plus conservative-update count-min for
// degree maxima, and an HLL-backed uniqueness check with an exact
// "dup front" window for key constraints. The EvidencePolicy decides the
// mode and sketch parameters; it hangs off the Symtab (every Type reads it
// through t.tab) and is set by the pipeline from Config.MemBudgetBytes.
//
// Degree evidence is keyed by the raw global endpoint pg.ID in both modes:
// sketch contents cannot be enumerated, so a cross-shard remap would be
// impossible — with global keys none is needed, and shards merge by merging
// sketch state (or exact rows) directly.

// EvidencePolicy selects the evidence mode and sketch parameters for one
// pipeline. A nil policy means exact evidence (today's behavior).
type EvidencePolicy struct {
	// SketchDegrees replaces exact CounterTables with degree sketches.
	SketchDegrees bool
	// SketchValues replaces the exact distinct-value hash set with an
	// HLL-backed uniqueness check.
	SketchValues bool

	// DegreeTopK is the space-saving capacity per degree direction.
	DegreeTopK int
	// CMSLogWidth/CMSDepth shape the count-min table per degree direction.
	CMSLogWidth int
	CMSDepth    int
	// HLLPrecision is the register-count exponent for all HLLs.
	HLLPrecision int

	// EnumByteCap bounds the total rendered bytes retained for enum
	// detection (applies in both modes; 0 = DefaultEnumByteCap).
	EnumByteCap int
	// DupFrontCap is the exact dup-front window size in sketched value
	// mode (0 = DefaultDupFrontCap).
	DupFrontCap int
}

// PolicyForBudget derives the evidence policy for a pipeline memory
// budget. A non-positive budget means unbounded: exact evidence (nil).
// Tiers trade sketch resolution for space — the per-edge-type cost is
// dominated by two count-min tables (depth × 2^logW × 4 B each).
func PolicyForBudget(budget int64) *EvidencePolicy {
	if budget <= 0 {
		return nil
	}
	p := &EvidencePolicy{
		SketchDegrees: true,
		SketchValues:  true,
		DegreeTopK:    sketch.DefaultTopK,
		CMSDepth:      sketch.DefaultCMSDepth,
		EnumByteCap:   DefaultEnumByteCap,
		DupFrontCap:   DefaultDupFrontCap,
	}
	switch {
	case budget < 128<<20:
		// HLL stays at p=12 even here: the 3 KiB saved at p=10 is noise
		// next to the CMS tables, and the ±3.2% error (±9.7% at 3σ) is
		// wide enough to falsely certify near-distinct degree streams as
		// all-distinct (max() in evidence.go) — p=12 halves the band.
		p.HLLPrecision = sketch.DefaultHLLPrecision // 4 KiB, ±1.6%
		p.CMSLogWidth = 12                          // 64 KiB per direction
		p.DegreeTopK = 16
	case budget < 512<<20:
		p.HLLPrecision = sketch.DefaultHLLPrecision // 4 KiB, ±1.6%
		p.CMSLogWidth = sketch.DefaultCMSLogWidth   // 256 KiB
	default:
		p.HLLPrecision = 14 // 16 KiB, ±0.8%
		p.CMSLogWidth = 16  // 1 MiB
		p.DegreeTopK = 64
	}
	return p
}

func (p *EvidencePolicy) enumByteCap() int {
	if p == nil || p.EnumByteCap <= 0 {
		return DefaultEnumByteCap
	}
	return p.EnumByteCap
}

func (p *EvidencePolicy) dupFrontCap() int {
	if p == nil || p.DupFrontCap <= 0 {
		return DefaultDupFrontCap
	}
	return p.DupFrontCap
}

func (p *EvidencePolicy) hllPrecision() int {
	if p == nil || p.HLLPrecision <= 0 {
		return sketch.DefaultHLLPrecision
	}
	return p.HLLPrecision
}

// SetEvidencePolicy installs the policy on the intern table (types read it
// through their tab binding) and on every value accumulator already in the
// schema — a decoded checkpoint carries sketch state but not the policy,
// so the pipeline re-installs it after ReadSchema.
func (s *Schema) SetEvidencePolicy(p *EvidencePolicy) {
	s.Tab.SetEvidencePolicy(p)
	for _, types := range [][]*Type{s.NodeTypes, s.EdgeTypes} {
		for _, t := range types {
			for i := 0; i < t.props.Len(); i++ {
				_, ps := t.props.At(i)
				ps.Values.pol = p
			}
		}
	}
}

// nanBits is the single bit pattern all NaNs hash to, mirroring the old
// rendered-string path where every NaN printed "NaN".
var nanBits = math.Float64bits(math.NaN())

// hashValue returns a 64-bit FNV-1a hash of (kind, payload) without
// allocating — the hot-path replacement for hashing the rendered string
// through a fresh fnv.New64a(). The induced equality matches the rendered
// form exactly: timestamps hash their Unix seconds (RFC3339 rendering has
// second precision and pg.Timestamp/Date are always UTC), and NaNs
// collapse to one pattern.
func hashValue(v pg.Value) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h ^= uint64(byte(v.Kind()))
	h *= prime64
	switch v.Kind() {
	case pg.KindInt:
		h = hash8(h, uint64(v.AsInt()))
	case pg.KindFloat:
		bits := math.Float64bits(v.AsFloat())
		if v.AsFloat() != v.AsFloat() {
			bits = nanBits
		}
		h = hash8(h, bits)
	case pg.KindBool:
		if v.AsBool() {
			h ^= 1
		}
		h *= prime64
	case pg.KindDate, pg.KindTimestamp:
		h = hash8(h, uint64(v.AsTime().Unix()))
	case pg.KindString:
		s := v.AsString()
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	return h
}

func hash8(h, x uint64) uint64 {
	const prime64 = 1099511628211
	for i := 0; i < 64; i += 8 {
		h ^= (x >> i) & 0xff
		h *= prime64
	}
	return h
}

// degreeSketch is the bounded-memory replacement for an exact
// CounterTable: an HLL estimates the distinct-endpoint count, a
// space-saving summary monitors the heaviest endpoints, and a
// conservative-update count-min tightens their counts. Keys are raw
// global endpoint IDs, so sketches from different shards merge directly.
type degreeSketch struct {
	hll   *sketch.HLL
	cms   *sketch.CountMin
	top   *sketch.TopK
	total uint64 // observations (sum of all per-key counts)
}

func newDegreeSketch(pol *EvidencePolicy) *degreeSketch {
	logW, depth, topK := sketch.DefaultCMSLogWidth, sketch.DefaultCMSDepth, sketch.DefaultTopK
	if pol != nil {
		if pol.CMSLogWidth > 0 {
			logW = pol.CMSLogWidth
		}
		if pol.CMSDepth > 0 {
			depth = pol.CMSDepth
		}
		if pol.DegreeTopK > 0 {
			topK = pol.DegreeTopK
		}
	}
	return &degreeSketch{
		hll: sketch.NewHLL(pol.hllPrecision()),
		cms: sketch.NewCountMin(logW, depth),
		top: sketch.NewTopK(topK),
	}
}

// newDegreeSketchLike returns an empty sketch with other's parameters, so
// a merge target built lazily always matches the source's shape.
func newDegreeSketchLike(other *degreeSketch) *degreeSketch {
	return &degreeSketch{
		hll: sketch.NewHLL(other.hll.Precision()),
		cms: other.cms.CloneEmpty(),
		top: sketch.NewTopK(other.top.K()),
	}
}

func (d *degreeSketch) observe(key uint64) {
	d.hll.Add(key)
	d.cms.Inc(key)
	d.top.Offer(key)
	d.total++
}

func (d *degreeSketch) addN(key uint64, n uint32) {
	if n == 0 {
		return
	}
	d.hll.Add(key)
	d.cms.IncN(key, n)
	d.top.OfferN(key, uint64(n))
	d.total += uint64(n)
}

func (d *degreeSketch) merge(other *degreeSketch) error {
	if err := d.hll.Merge(other.hll); err != nil {
		return err
	}
	if err := d.cms.Merge(other.cms); err != nil {
		return err
	}
	d.total += other.total
	return d.top.Merge(other.top)
}

func (d *degreeSketch) distinct() uint64 { return d.hll.Estimate() }

// max estimates the maximum per-key count: for each monitored heavy
// hitter, both its space-saving count and its count-min estimate are
// upper bounds, so their minimum is the tightest available; the maximum
// over monitored keys estimates the stream maximum (the true-max key is
// monitored whenever its count exceeds the space-saving floor).
//
// An all-distinct certificate runs first: when the HLL's distinct
// estimate reaches the observation total (within three standard errors),
// statistically every key appeared once and the maximum is 1. Neither
// upper-bound structure can certify small maxima on its own — count-min
// collisions and space-saving inflation both grow with the distinct
// count, exactly when the true maximum is smallest. The certificate is
// what keeps `*:1` cardinalities (every comment has one creator) from
// degrading to M:N under a budget; its known failure mode is a hub
// below the space-saving floor (~total/k) hidden in an otherwise
// degree-1 stream, which is under the resolution of any fixed-size
// summary at these parameters.
func (d *degreeSketch) max() int {
	if d.total > 0 {
		if est := float64(d.hll.Estimate()); est >= (1-3*d.hll.RelativeError())*float64(d.total) {
			return 1
		}
	}
	var best uint64
	for _, e := range d.top.Entries() {
		ub := e.Count
		if c := uint64(d.cms.Estimate(e.Key)); c < ub {
			ub = c
		}
		if ub > best {
			best = ub
		}
	}
	return int(best)
}

func (d *degreeSketch) clone() *degreeSketch {
	return &degreeSketch{hll: d.hll.Clone(), cms: d.cms.Clone(), top: d.top.Clone(), total: d.total}
}

func (d *degreeSketch) memBytes() int64 {
	return int64(d.hll.MemBytes()+d.cms.MemBytes()+d.top.MemBytes()) + 8
}

func (d *degreeSketch) write(w *pg.WireWriter) {
	d.hll.Write(w)
	d.cms.Write(w)
	d.top.Write(w)
	w.Uvarint(d.total)
}

func readDegreeSketch(r *pg.WireReader) (*degreeSketch, error) {
	hll, err := sketch.ReadHLL(r)
	if err != nil {
		return nil, err
	}
	cms, err := sketch.ReadCountMin(r)
	if err != nil {
		return nil, err
	}
	top, err := sketch.ReadTopK(r)
	if err != nil {
		return nil, err
	}
	total, err := r.Uvarint(^uint64(0))
	if err != nil {
		return nil, err
	}
	return &degreeSketch{hll: hll, cms: cms, top: top, total: total}, nil
}

// Sketched reports whether the table holds sketched evidence.
func (c *CounterTable) Sketched() bool { return c.sk != nil }

// sketches reports whether the table's pending keys resolve into a degree
// sketch under pol: always once it holds one, and otherwise only while it
// holds no exact rows and pol sketches degrees. A table observed under a
// sketching policy therefore sketches from its first read on, and an exact
// table keeps its mode until a merge with a sketched one converts it.
func (c *CounterTable) sketches(pol *EvidencePolicy) bool {
	return c.sk != nil || (len(c.ids) == 0 && len(c.pending) > 0 && pol != nil && pol.SketchDegrees)
}

// settle brings the table into the state the codec writes: a sketched
// table folds its pending keys into its sketch (allocated from pol if it
// has none yet), an exact one normalizes them into rows. Pending keys stay
// buffered until then — candidate types are short-lived, and allocating
// three sketches per candidate would dominate the hot path.
func (c *CounterTable) settle(pol *EvidencePolicy) {
	if !c.sketches(pol) {
		c.normalize()
		return
	}
	if c.sk == nil {
		c.sk = newDegreeSketch(pol)
	}
	for _, k := range c.pending {
		c.sk.observe(k)
	}
	c.pending = nil
}

// mergeEvidence folds other into c in whichever mode the two tables carry
// under pol. Both exact: the ordinary sorted merge. Either sketched:
// everything funnels into c's sketch in a fixed order, because count-min
// conservative update and space-saving depend on the order of updates —
// c's exact rows (an exact table aggregates its pending keys first) and
// pending keys, then other's rows, sketch state and pending keys. Exact
// rows replay in ascending raw-key order. No production run converts a
// non-empty exact table — under a sketching policy every observation is
// sketched — so that order never reaches a production sketch, and sketched
// schemas do not depend on how exact rows are keyed.
func (c *CounterTable) mergeEvidence(other *CounterTable, pol *EvidencePolicy) {
	cSketched, otherSketched := c.sketches(pol), other.sketches(pol)
	if !cSketched && !otherSketched {
		c.Merge(other)
		return
	}
	if !cSketched {
		c.normalize()
	}
	if !otherSketched {
		other.normalize()
	}
	if c.sk == nil {
		if other.sk != nil {
			c.sk = newDegreeSketchLike(other.sk)
		} else {
			c.sk = newDegreeSketch(pol)
		}
	}
	for i, k := range c.ids {
		c.sk.addN(k, c.counts[i])
	}
	for _, k := range c.pending {
		c.sk.observe(k)
	}
	c.ids, c.counts, c.pending = nil, nil, nil
	for i, k := range other.ids {
		c.sk.addN(k, other.counts[i])
	}
	if other.sk != nil {
		if err := c.sk.merge(other.sk); err != nil {
			panic(fmt.Sprintf("schema: degree sketch merge: %v", err))
		}
	}
	for _, k := range other.pending {
		c.sk.observe(k)
	}
}

// memBytes estimates the table's retained size.
func (c *CounterTable) memBytes() int64 {
	b := int64(len(c.ids)+len(c.pending))*8 + int64(len(c.counts))*4
	if c.sk != nil {
		b += c.sk.memBytes()
	}
	return b
}

// EvidenceBytes estimates the schema's retained evidence footprint: the
// intern table, label sets, members, property statistics (including value
// sketches or hash sets) and degree tables. It is an accounting estimate
// (map overheads are approximated), cheap enough to publish as a gauge
// after every batch and to check against the memory budget.
func (s *Schema) EvidenceBytes() int64 {
	var b int64
	for _, str := range s.Tab.strs {
		b += int64(len(str)) + 48 // string + map entry overhead
	}
	for _, types := range [][]*Type{s.NodeTypes, s.EdgeTypes} {
		for _, t := range types {
			b += t.evidenceBytes()
		}
	}
	return b
}

func (t *Type) evidenceBytes() int64 {
	b := int64(len(t.labels)+len(t.srcLabels)+len(t.dstLabels)) * 4
	b += int64(len(t.Members)) * 8
	for i := 0; i < t.props.Len(); i++ {
		_, p := t.props.At(i)
		b += 128 // PropStat struct + kind count maps
		b += p.Values.MemBytes()
	}
	b += t.outDeg.memBytes() + t.inDeg.memBytes()
	return b
}
