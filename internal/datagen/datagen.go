// Package datagen generates synthetic property graphs whose structural
// characteristics mirror the eight datasets of the paper's evaluation
// (Table 2): node/edge type counts, label conventions (multi-labels, shared
// integration labels), property heterogeneity (optional properties create
// many distinct patterns), edge/node ratios and cardinality shapes. The
// module is offline and the originals range up to 44.5M nodes, so each
// profile reproduces the published structure at a configurable scale — the
// quality and timing *shapes* of the experiments depend on structure, not
// raw size.
//
// Generators also attach ground-truth type assignments for every element,
// which the evaluation harness uses to compute majority-based F1* scores,
// and implement the paper's noise model: random property removal (0-40 %)
// and label availability (100/50/0 %).
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pghive/internal/pg"
)

// PropSpec describes one property of a generated type.
type PropSpec struct {
	// Key is the property key.
	Key string
	// Kind is the value kind generated for the property.
	Kind pg.Kind
	// Presence is the probability the property appears on an instance
	// (1.0 = mandatory before noise). Optional properties are what create
	// multiple patterns per type.
	Presence float64
	// MixedKind, when nonzero with MixedProb > 0, occasionally replaces
	// Kind — the value-level heterogeneity behind the paper's data-type
	// sampling errors (Figure 8: DOUBLE vs INTEGER, DATE vs STRING).
	MixedKind pg.Kind
	// MixedProb is the probability of generating MixedKind instead of Kind.
	MixedProb float64
	// Distinct bounds the value pool: values are drawn from at most this
	// many distinct values (categorical properties). 0 draws from a large
	// space, making values mostly unique (identifier-like properties —
	// these are what key discovery flags).
	Distinct int
}

// CatProp is a categorical property drawn from a pool of n distinct values.
func CatProp(key string, kind pg.Kind, n int) PropSpec {
	return PropSpec{Key: key, Kind: kind, Presence: 1, Distinct: n}
}

// OptCatProp is an optional categorical property.
func OptCatProp(key string, kind pg.Kind, n int, p float64) PropSpec {
	return PropSpec{Key: key, Kind: kind, Presence: p, Distinct: n}
}

// Prop is a mandatory property of the given kind.
func Prop(key string, kind pg.Kind) PropSpec {
	return PropSpec{Key: key, Kind: kind, Presence: 1}
}

// OptProp is an optional property present with probability p.
func OptProp(key string, kind pg.Kind, p float64) PropSpec {
	return PropSpec{Key: key, Kind: kind, Presence: p}
}

// MixedProp is a mandatory property that generates kind normally but mixed
// with probability mixedProb.
func MixedProp(key string, kind, mixed pg.Kind, mixedProb float64) PropSpec {
	return PropSpec{Key: key, Kind: kind, Presence: 1, MixedKind: mixed, MixedProb: mixedProb}
}

// NodeTypeSpec describes one ground-truth node type.
type NodeTypeSpec struct {
	// Name is the ground-truth type identifier (used by the evaluator).
	Name string
	// Labels is the label set instances carry (before noise).
	Labels []string
	// Weight is the type's share of the node population.
	Weight float64
	// Props are the type's properties.
	Props []PropSpec
}

// Shape selects the degree structure of a generated edge type, which
// determines its true cardinality.
type Shape uint8

// Edge shapes.
const (
	// ManyToMany: uniform random endpoints on both sides (M:N).
	ManyToMany Shape = iota
	// FanIn: every source has at most one edge of this type; targets are
	// shared (max_out = 1, max_in > 1 — the paper's "0:N", e.g. WORKS_AT).
	FanIn
	// FanOut: every target has at most one edge; sources are shared
	// (max_out > 1, max_in = 1 — the paper's "N:1").
	FanOut
	// OneToOne: each source and each target appears at most once (0:1).
	OneToOne
)

// EdgeTypeSpec describes one ground-truth edge type.
type EdgeTypeSpec struct {
	// Name is the ground-truth type identifier.
	Name string
	// Labels is the edge label set (usually one label).
	Labels []string
	// Src and Dst are node type names the endpoints are drawn from.
	Src, Dst string
	// Weight is the type's share of the edge population.
	Weight float64
	// Props are the edge's properties.
	Props []PropSpec
	// Shape sets the degree structure.
	Shape Shape
}

// Profile is a complete dataset blueprint.
type Profile struct {
	// Name is the dataset name as printed in Table 2.
	Name string
	// Real marks datasets that are real in the paper (R vs S).
	Real bool
	// PaperNodes and PaperEdges are the original sizes from Table 2,
	// reported for reference.
	PaperNodes, PaperEdges int
	// EdgeFactor is edges-per-node; generated edge count =
	// round(nodes · EdgeFactor), preserving the original density.
	EdgeFactor float64
	// NodeTypes and EdgeTypes define the ground truth.
	NodeTypes []NodeTypeSpec
	EdgeTypes []EdgeTypeSpec
}

// Options control generation.
type Options struct {
	// Nodes is the number of nodes to generate (0 means DefaultScaleNodes).
	Nodes int
	// Seed drives all randomness.
	Seed int64
}

// DefaultScaleNodes is the default generated node count per dataset.
const DefaultScaleNodes = 5000

// Dataset is a generated graph with its ground truth.
type Dataset struct {
	Profile   *Profile
	Graph     *pg.Graph
	NodeTruth map[pg.ID]string // node ID -> ground-truth type name
	EdgeTruth map[pg.ID]string // edge ID -> ground-truth type name
	// Noise records the noise applied (zero value = clean).
	Noise Noise
}

// Generate builds a dataset from a profile.
func Generate(p *Profile, opt Options) *Dataset {
	if opt.Nodes <= 0 {
		opt.Nodes = DefaultScaleNodes
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	g := pg.NewGraph()
	ds := &Dataset{
		Profile:   p,
		Graph:     g,
		NodeTruth: make(map[pg.ID]string, opt.Nodes),
		EdgeTruth: map[pg.ID]string{},
	}

	// Nodes: apportion by weight, at least one per type.
	nodeCounts := apportion(opt.Nodes, weightsOf(len(p.NodeTypes), func(i int) float64 { return p.NodeTypes[i].Weight }))
	pools := make(map[string][]pg.ID, len(p.NodeTypes))
	for ti := range p.NodeTypes {
		spec := &p.NodeTypes[ti]
		for c := 0; c < nodeCounts[ti]; c++ {
			props := genProps(spec.Props, rng)
			id := g.AddNode(spec.Labels, props)
			ds.NodeTruth[id] = spec.Name
			pools[spec.Name] = append(pools[spec.Name], id)
		}
	}

	// Edges: apportion by weight.
	totalEdges := int(float64(opt.Nodes)*p.EdgeFactor + 0.5)
	edgeCounts := apportion(totalEdges, weightsOf(len(p.EdgeTypes), func(i int) float64 { return p.EdgeTypes[i].Weight }))
	for ti := range p.EdgeTypes {
		spec := &p.EdgeTypes[ti]
		genEdges(ds, spec, edgeCounts[ti], pools, rng)
	}
	return ds
}

func weightsOf(n int, w func(i int) float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = w(i)
		if out[i] <= 0 {
			out[i] = 1
		}
	}
	return out
}

// apportion splits total into len(weights) integer parts proportional to
// weights, each at least 1 (when total allows). Weights whose shares are
// not all finite — they sum to zero, or the sum or a share overflows — are
// rescaled by the largest, and split evenly if that still leaves no finite
// share, so the parts are never negative and always sum to total.
func apportion(total int, weights []float64) []int {
	n := len(weights)
	if n == 0 {
		return nil
	}
	parts, ok := shares(total, weights)
	if !ok {
		top := 0.0
		for _, w := range weights {
			top = math.Max(top, math.Abs(w))
		}
		scaled := make([]float64, n)
		for i, w := range weights {
			scaled[i] = w / top
		}
		if parts, ok = shares(total, scaled); !ok {
			for i := range scaled {
				scaled[i] = 1
			}
			parts, _ = shares(total, scaled)
		}
	}
	out := make([]int, n)
	assigned := 0
	for i, x := range parts {
		out[i] = int(x)
		if out[i] == 0 && total >= n {
			out[i] = 1
		}
		assigned += out[i]
	}
	// Distribute the remainder (or trim overshoot) deterministically.
	i := 0
	for assigned < total {
		out[i%n]++
		assigned++
		i++
	}
	for assigned > total {
		if out[i%n] > 1 {
			out[i%n]--
			assigned--
		}
		i++
	}
	return out
}

// shares returns total·w/sum for every weight, and whether all are finite.
func shares(total int, weights []float64) ([]float64, bool) {
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	out := make([]float64, len(weights))
	for i, w := range weights {
		out[i] = float64(total) * w / sum
		if math.IsNaN(out[i]) || math.IsInf(out[i], 0) {
			return out, false
		}
	}
	return out, true
}

// randDraws is the slice of math/rand's API the generators draw from,
// satisfied by both *rand.Rand (profile generation, call-order seeded) and
// keyedRand (scenario generation, keyed on element identity so the draw is
// independent of generation order).
type randDraws interface {
	Float64() float64
	Int63n(n int64) int64
	Intn(n int) int
}

func genProps(specs []PropSpec, rng randDraws) pg.Properties {
	props := pg.Properties{}
	for _, s := range specs {
		if s.Presence < 1 && rng.Float64() >= s.Presence {
			continue
		}
		kind := s.Kind
		if s.MixedProb > 0 && rng.Float64() < s.MixedProb {
			kind = s.MixedKind
		}
		props[s.Key] = genValue(kind, s.Distinct, rng)
	}
	return props
}

var vocab = []string{
	"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
	"hotel", "india", "juliett", "kilo", "lima", "mike", "november",
}

// identifierSpace is the value space of identifier-like (Distinct = 0)
// properties; large enough that values rarely collide.
const identifierSpace = 1 << 40

func genValue(kind pg.Kind, distinct int, rng randDraws) pg.Value {
	pool := int64(identifierSpace)
	if distinct > 0 {
		pool = int64(distinct)
	}
	switch kind {
	case pg.KindInt:
		return pg.Int(rng.Int63n(pool))
	case pg.KindFloat:
		return pg.Float(float64(rng.Int63n(pool)) + 0.5)
	case pg.KindBool:
		return pg.Bool(rng.Intn(2) == 0)
	case pg.KindDate:
		days := pool
		if days > 19_000 { // ~52 years of distinct days
			days = 19_000
		}
		return pg.Date(time.Unix(rng.Int63n(days)*86_400, 0).UTC())
	case pg.KindTimestamp:
		secs := pool
		if secs > 1_700_000_000 {
			secs = 1_700_000_000
		}
		return pg.Timestamp(time.Unix(rng.Int63n(secs), 0).UTC())
	default:
		n := rng.Int63n(pool)
		return pg.Str(fmt.Sprintf("%s-%d", vocab[n%int64(len(vocab))], n))
	}
}

// genEdges creates count edges of the given spec. Endpoint pools must exist;
// specs referencing unknown node types panic (a profile bug).
func genEdges(ds *Dataset, spec *EdgeTypeSpec, count int, pools map[string][]pg.ID, rng *rand.Rand) {
	srcPool, ok := pools[spec.Src]
	if !ok || len(srcPool) == 0 {
		panic(fmt.Sprintf("datagen: edge type %q references unknown or empty source type %q", spec.Name, spec.Src))
	}
	dstPool, ok := pools[spec.Dst]
	if !ok || len(dstPool) == 0 {
		panic(fmt.Sprintf("datagen: edge type %q references unknown or empty target type %q", spec.Name, spec.Dst))
	}

	var srcSeq, dstSeq []pg.ID
	switch spec.Shape {
	case FanIn, OneToOne:
		srcSeq = distinctSequence(srcPool, count, rng)
	case FanOut:
		// sources shared: handled below
	}
	switch spec.Shape {
	case FanOut, OneToOne:
		dstSeq = distinctSequence(dstPool, count, rng)
	}

	n := count
	if srcSeq != nil && len(srcSeq) < n {
		n = len(srcSeq)
	}
	if dstSeq != nil && len(dstSeq) < n {
		n = len(dstSeq)
	}
	for i := 0; i < n; i++ {
		var src, dst pg.ID
		if srcSeq != nil {
			src = srcSeq[i]
		} else {
			src = srcPool[rng.Intn(len(srcPool))]
		}
		if dstSeq != nil {
			dst = dstSeq[i]
		} else {
			dst = dstPool[rng.Intn(len(dstPool))]
		}
		id, err := ds.Graph.AddEdge(spec.Labels, src, dst, genProps(spec.Props, rng))
		if err != nil {
			panic(err) // endpoints come from pools of existing nodes
		}
		ds.EdgeTruth[id] = spec.Name
	}
}

// distinctSequence returns up to count distinct IDs from the pool in random
// order (all of them if count exceeds the pool).
func distinctSequence(pool []pg.ID, count int, rng *rand.Rand) []pg.ID {
	if count > len(pool) {
		count = len(pool)
	}
	perm := rng.Perm(len(pool))[:count]
	out := make([]pg.ID, count)
	for i, j := range perm {
		out[i] = pool[j]
	}
	return out
}
