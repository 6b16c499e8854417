package datagen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"pghive/internal/pg"
)

// A Scenario is a declarative adversarial workload: a profile's type
// blueprint played out over a timeline of phases, each phase free to skew
// the label distribution, drift the set of active types (gradually via
// RampIn or abruptly by swapping the active lists), degrade labels and
// properties with correlated noise, and concentrate edges onto supernode
// heavy hitters. The element stream a scenario produces is fully seeded:
// the same spec + seed yields a byte-identical sequence of batches
// regardless of host, run count, or how the batches are later fanned out,
// because every random decision is keyed on (seed, element identity)
// rather than call order.
type Scenario struct {
	// Name identifies the scenario (bench rows, CLI -scenario).
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Dataset names a built-in profile (Table 2) the scenario plays;
	// empty when Profile is inline.
	Dataset string
	// Profile is the resolved type blueprint.
	Profile *Profile
	// BatchNodes is the default nodes per batch for phases that don't set
	// their own (0 = DefaultBatchNodes).
	BatchNodes int
	// Phases is the timeline, played in order.
	Phases []ScenarioPhase
}

// ScenarioPhase is one segment of a scenario's timeline.
type ScenarioPhase struct {
	// Name labels the phase in listings.
	Name string
	// Batches is how many batches this phase emits (≥ 1).
	Batches int
	// NodesPerBatch overrides the scenario default for this phase.
	NodesPerBatch int
	// EdgeFactor is edges-per-node for this phase (0 = profile's).
	EdgeFactor float64
	// Skew exponentiates the node type weights Zipf-style: type at rank r
	// (profile order) has its weight multiplied by (r+1)^-Skew, so larger
	// values concentrate the population on the first types. 0 keeps the
	// profile's weights.
	Skew float64
	// PropNoise removes each property occurrence with this probability.
	PropNoise float64
	// NoiseCorr correlates property removal within an element: with
	// probability NoiseCorr a property's removal draw is the element-level
	// draw (all such properties live or die together), otherwise it is an
	// independent per-key draw. The marginal removal rate stays PropNoise.
	NoiseCorr float64
	// LabelNoise strips a node's labels entirely with this probability.
	LabelNoise float64
	// EdgeLabelNoise strips an edge's labels with this probability.
	EdgeLabelNoise float64
	// ActiveNodeTypes restricts generation to these profile node types
	// (empty = all). Types absent from one phase and present in the next
	// model schema drift.
	ActiveNodeTypes []string
	// ActiveEdgeTypes restricts edge generation (empty = all whose
	// endpoint pools are populated).
	ActiveEdgeTypes []string
	// RampIn lists active node/edge types whose weight ramps linearly from
	// 1/Batches to 1 across the phase — gradual drift, as opposed to the
	// abrupt drift of a type simply joining ActiveNodeTypes at full weight.
	RampIn []string
	// Supernodes concentrates edge targets onto a few heavy hitters.
	Supernodes SupernodeSpec
}

// SupernodeSpec designates heavy-hitter nodes: the first Count nodes ever
// generated for an edge type's target pool become hubs, and each generated
// edge is rerouted to a random hub with probability Share (degree-distinct
// shapes — fan-out, one-to-one — are exempt, their target structure is the
// point).
type SupernodeSpec struct {
	Count int
	Share float64
}

// DefaultBatchNodes is the per-batch node count when neither the scenario
// nor the phase sets one.
const DefaultBatchNodes = 200

// Validate checks the scenario against its profile: every phase non-empty,
// rates in range, and every referenced type name defined.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("datagen: scenario needs a name")
	}
	if s.Profile == nil {
		return fmt.Errorf("datagen: scenario %q has no profile", s.Name)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("datagen: scenario %q has no phases", s.Name)
	}
	if s.BatchNodes < 0 {
		return fmt.Errorf("datagen: scenario %q: negative batchNodes", s.Name)
	}
	nodeNames := map[string]bool{}
	for _, nt := range s.Profile.NodeTypes {
		nodeNames[nt.Name] = true
	}
	edgeNames := map[string]bool{}
	for _, et := range s.Profile.EdgeTypes {
		edgeNames[et.Name] = true
	}
	for i := range s.Phases {
		ph := &s.Phases[i]
		where := fmt.Sprintf("datagen: scenario %q phase %d", s.Name, i)
		if ph.Batches < 1 {
			return fmt.Errorf("%s: batches must be ≥ 1", where)
		}
		if ph.NodesPerBatch < 0 {
			return fmt.Errorf("%s: negative nodesPerBatch", where)
		}
		if ph.EdgeFactor < 0 || ph.Skew < 0 {
			return fmt.Errorf("%s: negative edgeFactor or skew", where)
		}
		for _, r := range []struct {
			name string
			v    float64
		}{
			{"propNoise", ph.PropNoise}, {"noiseCorr", ph.NoiseCorr},
			{"labelNoise", ph.LabelNoise}, {"edgeLabelNoise", ph.EdgeLabelNoise},
			{"supernode share", ph.Supernodes.Share},
		} {
			if r.v < 0 || r.v > 1 || math.IsNaN(r.v) {
				return fmt.Errorf("%s: %s %v outside [0,1]", where, r.name, r.v)
			}
		}
		if ph.Supernodes.Count < 0 {
			return fmt.Errorf("%s: negative supernode count", where)
		}
		active := map[string]bool{}
		for _, n := range ph.ActiveNodeTypes {
			if !nodeNames[n] {
				return fmt.Errorf("%s: unknown node type %q", where, n)
			}
			active[n] = true
		}
		for _, n := range ph.ActiveEdgeTypes {
			if !edgeNames[n] {
				return fmt.Errorf("%s: unknown edge type %q", where, n)
			}
			active[n] = true
		}
		for _, n := range ph.RampIn {
			switch {
			case len(ph.ActiveNodeTypes) == 0 && nodeNames[n],
				len(ph.ActiveEdgeTypes) == 0 && edgeNames[n],
				active[n]:
			default:
				return fmt.Errorf("%s: rampIn type %q is not active", where, n)
			}
		}
	}
	return nil
}

// TotalBatches is the batch count of one pass over the timeline.
func (s *Scenario) TotalBatches() int {
	n := 0
	for i := range s.Phases {
		n += s.Phases[i].Batches
	}
	return n
}

// Stream plays the scenario once.
func (s *Scenario) Stream(seed int64) *ScenarioStream { return s.StreamN(seed, 1) }

// StreamN plays the timeline repeat times back to back — element IDs keep
// growing across repeats, so a long soak over a short scenario still looks
// like one ever-growing graph. The stream panics on an invalid scenario
// (JSON-loaded scenarios are validated at decode time).
func (s *Scenario) StreamN(seed int64, repeat int) *ScenarioStream {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if repeat < 1 {
		repeat = 1
	}
	return &ScenarioStream{
		sc:      s,
		seed:    seed,
		repeat:  repeat,
		pools:   map[string][]poolEntry{},
		cursors: map[string]*edgeCursor{},
	}
}

// poolEntry is one generated node as later edges see it: its ID and its
// post-noise labels (nil when LabelNoise stripped them), so EdgeRecords
// carry the same endpoint labels a real loader would resolve.
type poolEntry struct {
	id     pg.ID
	labels []string
}

// edgeCursor walks a pool sequentially for degree-distinct shapes (fan-in
// sources, fan-out targets): each position is used once, wrapping only when
// the pool is exhausted.
type edgeCursor struct {
	src, dst int
}

// ScenarioStream is a pg.Source that generates the scenario's batches on
// demand. It is single-goroutine, like every Source.
type ScenarioStream struct {
	sc     *Scenario
	seed   int64
	repeat int

	rep, phase, batchInPhase int
	nextNode, nextEdge       int64
	pools                    map[string][]poolEntry
	cursors                  map[string]*edgeCursor
}

// Next returns the next generated batch, or nil when the timeline (times
// repeat) is exhausted.
func (st *ScenarioStream) Next() *pg.Batch {
	for {
		if st.phase >= len(st.sc.Phases) {
			st.rep++
			if st.rep >= st.repeat {
				return nil
			}
			st.phase, st.batchInPhase = 0, 0
		}
		ph := &st.sc.Phases[st.phase]
		if st.batchInPhase >= ph.Batches {
			st.phase++
			st.batchInPhase = 0
			continue
		}
		b := st.genBatch(ph)
		st.batchInPhase++
		return b
	}
}

// Salts separating the keyed draw families (arbitrary odd constants).
const (
	saltScenNodeProps uint64 = 0x9e3779b97f4a7c15
	saltScenEdgeProps uint64 = 0xbf58476d1ce4e5b9
	saltScenNodeLabel uint64 = 0x94d049bb133111eb
	saltScenEdgeLabel uint64 = 0xd6e8feb86659fd93
	saltScenNodeNoise uint64 = 0xa0761d6478bd642f
	saltScenEdgeNoise uint64 = 0xe7037ed1a0b428db
	saltScenReroute   uint64 = 0x8ebc6af09c88c6e3
)

func (st *ScenarioStream) genBatch(ph *ScenarioPhase) *pg.Batch {
	p := st.sc.Profile
	b := &pg.Batch{}

	// Resolve the phase's active node specs, in profile order.
	ramp := map[string]bool{}
	for _, n := range ph.RampIn {
		ramp[n] = true
	}
	rampFactor := float64(st.batchInPhase+1) / float64(ph.Batches)
	var specs []*NodeTypeSpec
	var weights []float64
	for ti := range p.NodeTypes {
		spec := &p.NodeTypes[ti]
		if !nameActive(spec.Name, ph.ActiveNodeTypes) {
			continue
		}
		w := spec.Weight
		if w <= 0 {
			w = 1
		}
		if ph.Skew > 0 {
			w *= math.Pow(float64(len(specs)+1), -ph.Skew)
		}
		if ramp[spec.Name] {
			w *= rampFactor
		}
		if w <= 0 {
			continue
		}
		specs = append(specs, spec)
		weights = append(weights, w)
	}

	nodes := ph.NodesPerBatch
	if nodes == 0 {
		nodes = st.sc.BatchNodes
	}
	if nodes == 0 {
		nodes = DefaultBatchNodes
	}
	if len(specs) > 0 {
		counts := apportion(nodes, weights)
		for si, spec := range specs {
			for c := 0; c < counts[si]; c++ {
				st.nextNode++
				id := pg.ID(st.nextNode)
				rng := newKeyedRand(st.seed, saltScenNodeProps, uint64(id))
				props := genProps(spec.Props, rng)
				if ph.PropNoise > 0 {
					props = dropProps(props, ph.PropNoise, ph.NoiseCorr, st.seed, saltScenNodeNoise, uint64(id))
				}
				labels := spec.Labels
				if ph.LabelNoise > 0 && unitDraw(uint64(st.seed), saltScenNodeLabel, uint64(id)) < ph.LabelNoise {
					labels = nil
				}
				b.Nodes = append(b.Nodes, pg.NodeRecord{ID: id, Labels: labels, Props: props})
				st.pools[spec.Name] = append(st.pools[spec.Name], poolEntry{id: id, labels: labels})
			}
		}
	}

	// Edges, apportioned over the phase's active edge types whose endpoint
	// pools already have nodes (a type whose source hasn't appeared yet
	// simply contributes nothing this batch).
	edgeFactor := ph.EdgeFactor
	if edgeFactor == 0 {
		edgeFactor = p.EdgeFactor
	}
	totalEdges := int(float64(nodes)*edgeFactor + 0.5)
	var especs []*EdgeTypeSpec
	var eweights []float64
	for ti := range p.EdgeTypes {
		spec := &p.EdgeTypes[ti]
		if !nameActive(spec.Name, ph.ActiveEdgeTypes) {
			continue
		}
		if len(st.pools[spec.Src]) == 0 || len(st.pools[spec.Dst]) == 0 {
			continue
		}
		w := spec.Weight
		if w <= 0 {
			w = 1
		}
		if ramp[spec.Name] {
			w *= rampFactor
		}
		if w <= 0 {
			continue
		}
		especs = append(especs, spec)
		eweights = append(eweights, w)
	}
	if totalEdges > 0 && len(especs) > 0 {
		counts := apportion(totalEdges, eweights)
		for si, spec := range especs {
			st.genScenarioEdges(b, ph, spec, counts[si])
		}
	}
	return b
}

func (st *ScenarioStream) genScenarioEdges(b *pg.Batch, ph *ScenarioPhase, spec *EdgeTypeSpec, count int) {
	srcPool := st.pools[spec.Src]
	dstPool := st.pools[spec.Dst]
	cur := st.cursors[spec.Name]
	if cur == nil {
		cur = &edgeCursor{}
		st.cursors[spec.Name] = cur
	}
	for c := 0; c < count; c++ {
		st.nextEdge++
		id := pg.ID(st.nextEdge)
		rng := newKeyedRand(st.seed, saltScenEdgeProps, uint64(id))

		var src, dst poolEntry
		switch spec.Shape {
		case FanIn, OneToOne:
			src = srcPool[cur.src%len(srcPool)]
			cur.src++
		default:
			src = srcPool[rng.Intn(len(srcPool))]
		}
		switch spec.Shape {
		case FanOut, OneToOne:
			dst = dstPool[cur.dst%len(dstPool)]
			cur.dst++
		default:
			if n := ph.Supernodes.Count; n > 0 &&
				unitDraw(uint64(st.seed), saltScenReroute, uint64(id)) < ph.Supernodes.Share {
				if n > len(dstPool) {
					n = len(dstPool)
				}
				dst = dstPool[rng.Intn(n)]
			} else {
				dst = dstPool[rng.Intn(len(dstPool))]
			}
		}

		props := genProps(spec.Props, rng)
		if ph.PropNoise > 0 {
			props = dropProps(props, ph.PropNoise, ph.NoiseCorr, st.seed, saltScenEdgeNoise, uint64(id))
		}
		labels := spec.Labels
		if ph.EdgeLabelNoise > 0 && unitDraw(uint64(st.seed), saltScenEdgeLabel, uint64(id)) < ph.EdgeLabelNoise {
			labels = nil
		}
		b.Edges = append(b.Edges, pg.EdgeRecord{
			ID: id, Labels: labels, Src: src.id, Dst: dst.id,
			SrcLabels: src.labels, DstLabels: dst.labels, Props: props,
		})
	}
}

func nameActive(name string, active []string) bool {
	if len(active) == 0 {
		return true
	}
	for _, a := range active {
		if a == name {
			return true
		}
	}
	return false
}

// dropProps removes each property with probability rate, the removal draws
// keyed on (seed, element, key) and correlated within the element per corr.
func dropProps(props pg.Properties, rate, corr float64, seed int64, salt uint64, id uint64) pg.Properties {
	if rate <= 0 || len(props) == 0 {
		return props
	}
	out := pg.Properties{}
	for _, k := range pg.SortedPropKeys(props) {
		if propDraw(seed, salt, id, k, corr) >= rate {
			out[k] = props[k]
		}
	}
	return out
}

// HashStream drains a batch source and returns the hex SHA-256 of a
// canonical wire encoding of every element, plus what it counted — the
// byte-identity fingerprint reproducibility tests and benches pin. The
// per-batch encoding is pg.WriteBatch, so the pinned stream hashes also pin
// the batch wire format.
func HashStream(src pg.Source) (digest string, batches, nodes, edges int) {
	h := sha256.New()
	w := pg.NewWireWriter(h)
	for {
		b := src.Next()
		if b == nil {
			break
		}
		batches++
		nodes += len(b.Nodes)
		edges += len(b.Edges)
		if err := pg.WriteBatch(w, b); err != nil {
			panic(err) // generated values always have an encodable kind
		}
	}
	if err := w.Flush(); err != nil {
		panic(err) // sha256.New never fails to write
	}
	return hex.EncodeToString(h.Sum(nil)), batches, nodes, edges
}
