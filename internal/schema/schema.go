// Package schema models the property-graph schema PG-HIVE discovers: node
// and edge types with label sets, property statistics, endpoint
// connectivity and instance evidence (Definitions 3.2-3.4 of the paper),
// plus the monotone merge operations of §4.3/§4.6 (Lemmas 1 and 2: merging
// unions labels, properties and endpoints, never discarding information).
//
// Types store their evidence in interned form — sorted uint32 ID slices
// and flat tables backed by a per-pipeline Symtab — so the hot path never
// hashes strings or builds joined keys; accessors resolve IDs back to
// strings for inference, serialization and tests.
package schema

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pghive/internal/pg"
)

// StringSet is a set of strings (labels or property keys).
type StringSet map[string]struct{}

// NewStringSet builds a set from the given elements.
func NewStringSet(elems ...string) StringSet {
	s := make(StringSet, len(elems))
	for _, e := range elems {
		s[e] = struct{}{}
	}
	return s
}

// Add inserts an element.
func (s StringSet) Add(e string) { s[e] = struct{}{} }

// AddAll inserts every element of other.
func (s StringSet) AddAll(other StringSet) {
	for e := range other {
		s[e] = struct{}{}
	}
}

// Has reports membership.
func (s StringSet) Has(e string) bool {
	_, ok := s[e]
	return ok
}

// Len returns the cardinality.
func (s StringSet) Len() int { return len(s) }

// Sorted returns the elements in sorted order.
func (s StringSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for e := range s {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// Key returns a collision-free canonical encoding of the set: each element
// in sorted order, length-prefixed ("1:a1:b"). Unlike a plain separator
// join, {"a&b"} and {"a","b"} encode differently. Display names use
// Type.LabelKey instead.
func (s StringSet) Key() string {
	sorted := s.Sorted()
	var sb strings.Builder
	for _, e := range sorted {
		sb.WriteString(strconv.Itoa(len(e)))
		sb.WriteByte(':')
		sb.WriteString(e)
	}
	return sb.String()
}

// Clone returns a copy.
func (s StringSet) Clone() StringSet {
	c := make(StringSet, len(s))
	for e := range s {
		c[e] = struct{}{}
	}
	return c
}

// Jaccard returns |A∩B| / |A∪B|; two empty sets have similarity 1.
func Jaccard(a, b StringSet) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := 0
	for e := range a {
		if b.Has(e) {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// PropStat accumulates evidence about one property key within one type:
// how many instances carry it (for MANDATORY/OPTIONAL inference), the
// observed value kinds under full scan and under sampling (for data-type
// inference and the Figure 8 sampling-error experiment), and value-level
// evidence for key constraints, enumerations and ranges.
type PropStat struct {
	// Count is the number of instances of the type carrying this key.
	Count int
	// Kinds counts every observed value's kind (full scan).
	Kinds map[pg.Kind]int
	// SampleKinds counts the kinds of sampled values only.
	SampleKinds map[pg.Kind]int
	// Values accumulates value-level evidence.
	Values *ValueStat
}

// NewPropStat returns an empty accumulator with exact value evidence.
func NewPropStat() *PropStat {
	return newPropStatPol(nil)
}

// newPropStatPol returns an empty accumulator whose value evidence follows
// the given policy (nil = exact).
func newPropStatPol(pol *EvidencePolicy) *PropStat {
	return &PropStat{
		Kinds:       map[pg.Kind]int{},
		SampleKinds: map[pg.Kind]int{},
		Values:      newValueStatPol(pol),
	}
}

// Observe records one value occurrence. It leaves SampleKinds alone: the
// data-type sample is drawn over whole candidates once they are observed
// (core's sampler).
func (p *PropStat) Observe(v pg.Value) {
	p.Count++
	p.Kinds[v.Kind()]++
	p.Values.Observe(v)
}

// Merge folds other into p.
func (p *PropStat) Merge(other *PropStat) {
	p.Count += other.Count
	for k, c := range other.Kinds {
		p.Kinds[k] += c
	}
	for k, c := range other.SampleKinds {
		p.SampleKinds[k] += c
	}
	p.Values.Merge(other.Values)
}

// SampleSize returns the number of sampled observations.
func (p *PropStat) SampleSize() int {
	n := 0
	for _, c := range p.SampleKinds {
		n += c
	}
	return n
}

// ElementKind distinguishes node types from edge types.
type ElementKind uint8

// Element kinds.
const (
	NodeKind ElementKind = iota
	EdgeKind
)

// Type is a discovered (candidate or merged) node or edge type: the cluster
// representative of §4.2 plus the accumulated evidence the post-processing
// steps need. All evidence is interned against the type's Symtab; for node
// types the endpoint structures are unused.
type Type struct {
	Kind ElementKind
	// Instances is the number of elements assigned to this type.
	Instances int
	// Abstract marks an unlabeled type kept as ABSTRACT (PG-Schema) after
	// the merging step failed to attach it to a labeled type.
	Abstract bool
	// Members records the element IDs assigned to the type when member
	// tracking is enabled (used by the evaluation harness).
	Members []pg.ID

	tab *Symtab
	// labels is the union of all labels observed on the type's instances
	// (the representative's L), as sorted interned IDs.
	labels IDSet
	// props maps interned property keys to their accumulated statistics
	// (the representative's K plus evidence).
	props PropTable
	// srcLabels and dstLabels are, for edge types, the unions of labels
	// observed on source and target endpoints (the representative's R).
	srcLabels IDSet
	dstLabels IDSet
	// outDeg and inDeg count, per raw endpoint ID, how many edges of this
	// type leave/enter it — the evidence for cardinality inference (§4.4).
	outDeg CounterTable
	inDeg  CounterTable
}

// NewType returns an empty type of the given kind, interning against tab.
func NewType(tab *Symtab, kind ElementKind) *Type {
	return &Type{Kind: kind, tab: tab}
}

// Tab returns the type's intern table.
func (t *Type) Tab() *Symtab { return t.tab }

// LabelKey returns the display key of the type's label set: the sorted
// labels joined with "&" ("" when unlabeled). It can conflate label sets
// whose elements contain "&" — type identity uses the interned label set
// (Schema.FindByLabelSet), this form only names types in rendered output.
func (t *Type) LabelKey() string { return strings.Join(t.LabelStrings(), "&") }

// Labeled reports whether the type carries at least one label.
func (t *Type) Labeled() bool { return len(t.labels) > 0 }

// LabelIDs returns the type's label set as sorted interned IDs. The slice
// aliases the type's state; callers must not modify it.
func (t *Type) LabelIDs() IDSet { return t.labels }

// LabelStrings returns the labels resolved and sorted lexically.
func (t *Type) LabelStrings() []string { return t.labels.Strings(t.tab) }

// Labels returns the labels as a freshly built StringSet.
func (t *Type) Labels() StringSet { return idSetStrings(t.labels, t.tab) }

// SrcLabels returns the source-endpoint labels as a freshly built
// StringSet.
func (t *Type) SrcLabels() StringSet { return idSetStrings(t.srcLabels, t.tab) }

// DstLabels returns the target-endpoint labels as a freshly built
// StringSet.
func (t *Type) DstLabels() StringSet { return idSetStrings(t.dstLabels, t.tab) }

// SrcLabelStrings returns the source-endpoint labels sorted lexically.
func (t *Type) SrcLabelStrings() []string { return t.srcLabels.Strings(t.tab) }

// DstLabelStrings returns the target-endpoint labels sorted lexically.
func (t *Type) DstLabelStrings() []string { return t.dstLabels.Strings(t.tab) }

func idSetStrings(s IDSet, tab *Symtab) StringSet {
	out := make(StringSet, len(s))
	for _, id := range s {
		out[tab.Str(id)] = struct{}{}
	}
	return out
}

// HasLabel reports whether the type carries the label.
func (t *Type) HasLabel(l string) bool {
	id, ok := t.tab.Lookup(l)
	return ok && t.labels.Contains(id)
}

// AddLabel inserts a label.
func (t *Type) AddLabel(l string) { t.labels.Insert(t.tab.Intern(l)) }

// AddSrcLabel inserts a source-endpoint label (edge types).
func (t *Type) AddSrcLabel(l string) { t.srcLabels.Insert(t.tab.Intern(l)) }

// AddDstLabel inserts a target-endpoint label (edge types).
func (t *Type) AddDstLabel(l string) { t.dstLabels.Insert(t.tab.Intern(l)) }

// NumProps returns the number of distinct property keys.
func (t *Type) NumProps() int { return t.props.Len() }

// Prop returns the accumulator for key, or nil when the type has no such
// property.
func (t *Type) Prop(key string) *PropStat {
	id, ok := t.tab.Lookup(key)
	if !ok {
		return nil
	}
	return t.props.Get(id)
}

// SetProp installs an accumulator for key (test/codec construction
// helper).
func (t *Type) SetProp(key string, p *PropStat) { t.props.put(t.tab.Intern(key), p) }

// PropAt returns the i-th property (0 ≤ i < NumProps, in interned-ID
// order): its key ID and accumulator.
func (t *Type) PropAt(i int) (uint32, *PropStat) { return t.props.At(i) }

// EachProp calls f for every property key (in interned-ID order) with its
// accumulator.
func (t *Type) EachProp(f func(key string, p *PropStat)) {
	for i := 0; i < t.props.Len(); i++ {
		id, p := t.props.At(i)
		f(t.tab.Str(id), p)
	}
}

// PropKeyStrings returns the property keys sorted lexically.
func (t *Type) PropKeyStrings() []string { return t.props.ids.Strings(t.tab) }

// PropKeySet returns the property keys as a StringSet.
func (t *Type) PropKeySet() StringSet { return idSetStrings(t.props.ids, t.tab) }

// PropIDs returns the property-key IDs, sorted. The slice aliases the
// type's state; callers must not modify it.
func (t *Type) PropIDs() IDSet { return t.props.ids }

// Merge-key tags: MergeKeys distinguishes property keys from endpoint
// labels by tagging the interned ID's high word, mirroring the "\x00src:"
// namespacing of the string representation bijectively.
const (
	mergeTagSrc = uint64(1) << 32
	mergeTagDst = uint64(2) << 32
)

// MergeKeys returns the type's similarity fingerprint for the Jaccard
// merge test of Algorithm 2 as a sorted uint64 slice: property-key IDs,
// plus — for edge types — tagged source/target endpoint label IDs, so
// endpoint structure participates in edge similarity exactly as in the
// string form.
func (t *Type) MergeKeys() []uint64 {
	n := t.props.Len()
	if t.Kind == EdgeKind {
		n += len(t.srcLabels) + len(t.dstLabels)
	}
	out := make([]uint64, 0, n)
	for _, id := range t.props.ids {
		out = append(out, uint64(id))
	}
	if t.Kind == EdgeKind {
		// Tag groups ascend (0 < 1<<32 < 2<<32) and IDs ascend within each
		// group, so the concatenation is already sorted.
		for _, id := range t.srcLabels {
			out = append(out, mergeTagSrc|uint64(id))
		}
		for _, id := range t.dstLabels {
			out = append(out, mergeTagDst|uint64(id))
		}
	}
	return out
}

// AddOutDeg records n out-incidences for the endpoint (test/codec
// construction helper).
func (t *Type) AddOutDeg(ep pg.ID, n int) { t.outDeg.Add(uint64(ep), uint32(n)) }

// AddInDeg records n in-incidences for the endpoint.
func (t *Type) AddInDeg(ep pg.ID, n int) { t.inDeg.Add(uint64(ep), uint32(n)) }

// OutDistinct returns how many distinct source endpoints the type's edges
// were observed on (the out-participation evidence). In sketched mode it
// is an HLL estimate.
func (t *Type) OutDistinct() int { return t.outDeg.distinct(t.tab.Evidence()) }

// InDistinct returns how many distinct target endpoints the type's edges
// were observed on.
func (t *Type) InDistinct() int { return t.inDeg.distinct(t.tab.Evidence()) }

// ObserveNode folds one node record into the type.
func (t *Type) ObserveNode(n *pg.NodeRecord, trackMembers bool) {
	if t.Kind != NodeKind {
		panic("schema: ObserveNode on edge type")
	}
	t.Instances++
	for _, l := range n.Labels {
		t.labels.Insert(t.tab.Intern(l))
	}
	pol := t.tab.Evidence()
	for k, v := range n.Props {
		t.props.getOrCreatePol(t.tab.Intern(k), pol).Observe(v)
	}
	if trackMembers {
		t.Members = append(t.Members, n.ID)
	}
}

// ObserveEdge folds one edge record into the type.
func (t *Type) ObserveEdge(e *pg.EdgeRecord, trackMembers bool) {
	if t.Kind != EdgeKind {
		panic("schema: ObserveEdge on node type")
	}
	t.Instances++
	for _, l := range e.Labels {
		t.labels.Insert(t.tab.Intern(l))
	}
	for _, l := range e.SrcLabels {
		t.srcLabels.Insert(t.tab.Intern(l))
	}
	for _, l := range e.DstLabels {
		t.dstLabels.Insert(t.tab.Intern(l))
	}
	pol := t.tab.Evidence()
	for k, v := range e.Props {
		t.props.getOrCreatePol(t.tab.Intern(k), pol).Observe(v)
	}
	t.outDeg.Inc(uint64(e.Src))
	t.inDeg.Inc(uint64(e.Dst))
	if trackMembers {
		t.Members = append(t.Members, e.ID)
	}
}

// Merge folds other (of the same kind) into t, unioning labels, properties
// and endpoints and summing evidence. This is the operation of Lemmas 1 and
// 2: no label, property key or endpoint label is ever lost. Discovery only
// ever merges types with equal or empty label sets, which is what keeps
// Schema's label index valid (see Schema.Add).
//
// When other was interned against a different Symtab (a partial schema from
// another discovery shard), its string IDs are translated into t's table
// first — the same-table case is the common one and translates nothing.
// Degree evidence needs no translation: it is keyed by raw endpoint IDs.
// Evidence accumulators are merged by value, so other stays structurally
// intact but must not be merged anywhere else afterwards.
func (t *Type) Merge(other *Type) {
	if t.Kind != other.Kind {
		panic(fmt.Sprintf("schema: merging %v type into %v type", other.Kind, t.Kind))
	}
	labels, srcLabels, dstLabels := other.labels, other.srcLabels, other.dstLabels
	var strs []uint32
	if t.tab != other.tab {
		strs = NewRemap(other.tab, t.tab)
		labels, srcLabels, dstLabels = RemapIDs(labels, strs), RemapIDs(srcLabels, strs), RemapIDs(dstLabels, strs)
	}
	t.labels.Union(labels)
	pol := t.tab.Evidence()
	for i := 0; i < other.props.Len(); i++ {
		id, p := other.props.At(i)
		if strs != nil {
			id = strs[id]
		}
		t.props.getOrCreatePol(id, pol).Merge(p)
	}
	t.Instances += other.Instances
	if t.Kind == EdgeKind {
		t.srcLabels.Union(srcLabels)
		t.dstLabels.Union(dstLabels)
		t.outDeg.mergeEvidence(&other.outDeg, pol)
		t.inDeg.mergeEvidence(&other.inDeg, pol)
	}
	t.Members = append(t.Members, other.Members...)
	// A merge with a labeled type rescues an abstract one.
	if t.Labeled() {
		t.Abstract = false
	}
}

// MaxDegrees returns the maximum out- and in-degree observed for an edge
// type (a sketch-estimated upper bound in sketched mode).
func (t *Type) MaxDegrees() pg.DegreePair {
	pol := t.tab.Evidence()
	return pg.DegreePair{MaxOut: t.outDeg.max(pol), MaxIn: t.inDeg.max(pol)}
}

// Schema is the evolving schema graph S_G: the node and edge types
// accumulated so far (Definition 3.4). Types are stored in discovery
// order; a hashed ID-tuple index resolves label-set lookups without
// building string keys.
type Schema struct {
	// Tab is the intern table every type in the schema shares.
	Tab       *Symtab
	NodeTypes []*Type
	EdgeTypes []*Type

	// byLabels indexes labeled types per kind by the 64-bit hash of their
	// label-ID tuple. Valid because discovery never changes the label set
	// of a type after it is added (merges union equal or empty sets).
	byLabels [2]map[uint64][]*Type
}

// NewSchema returns an empty schema with a fresh intern table.
func NewSchema() *Schema { return NewSchemaWith(NewSymtab()) }

// NewSchemaWith returns an empty schema sharing an existing intern table
// (the pipeline's, so candidate types can merge straight in).
func NewSchemaWith(tab *Symtab) *Schema {
	return &Schema{
		Tab:      tab,
		byLabels: [2]map[uint64][]*Type{{}, {}},
	}
}

// NewType returns an empty type of the given kind bound to the schema's
// intern table.
func (s *Schema) NewType(kind ElementKind) *Type { return NewType(s.Tab, kind) }

// Types returns the node or edge type list for the given kind.
func (s *Schema) Types(kind ElementKind) []*Type {
	if kind == NodeKind {
		return s.NodeTypes
	}
	return s.EdgeTypes
}

// Add appends a type of its kind and indexes its label set.
func (s *Schema) Add(t *Type) {
	if t.tab != s.Tab {
		panic("schema: adding type from a different intern table")
	}
	if t.Kind == NodeKind {
		s.NodeTypes = append(s.NodeTypes, t)
	} else {
		s.EdgeTypes = append(s.EdgeTypes, t)
	}
	if t.Labeled() {
		h := hashIDs(t.labels)
		s.byLabels[t.Kind][h] = append(s.byLabels[t.Kind][h], t)
	}
}

// FindByLabelSet returns the first type of the given kind whose label set
// equals labels (sorted interned IDs), or nil. Hash collisions are
// resolved by exact comparison, so distinct label sets never conflate.
func (s *Schema) FindByLabelSet(kind ElementKind, labels IDSet) *Type {
	for _, t := range s.byLabels[kind][hashIDs(labels)] {
		if t.labels.Equal(labels) {
			return t
		}
	}
	return nil
}

// FindByLabelKey returns the first type of the given kind whose display
// label key (LabelKey) equals key, or nil. Test convenience — discovery
// uses FindByLabelSet.
func (s *Schema) FindByLabelKey(kind ElementKind, key string) *Type {
	for _, t := range s.Types(kind) {
		if t.LabelKey() == key {
			return t
		}
	}
	return nil
}

// AllLabels returns the union of labels across all types of the kind.
func (s *Schema) AllLabels(kind ElementKind) StringSet {
	out := StringSet{}
	for _, t := range s.Types(kind) {
		for _, id := range t.labels {
			out.Add(s.Tab.Str(id))
		}
	}
	return out
}

// AllPropertyKeys returns the union of property keys across all types of
// the kind.
func (s *Schema) AllPropertyKeys(kind ElementKind) StringSet {
	out := StringSet{}
	for _, t := range s.Types(kind) {
		for _, id := range t.props.ids {
			out.Add(s.Tab.Str(id))
		}
	}
	return out
}

// Covers reports whether the schema has a type of the given kind whose
// labels include all of labels and whose property keys include all of keys
// — the type-completeness guarantee of §4.7.
func (s *Schema) Covers(kind ElementKind, labels []string, keys []string) bool {
	labelIDs := make(IDSet, 0, len(labels))
	for _, l := range labels {
		id, ok := s.Tab.Lookup(l)
		if !ok {
			return false // never observed, so no type can carry it
		}
		labelIDs = append(labelIDs, id)
	}
	keyIDs := make(IDSet, 0, len(keys))
	for _, k := range keys {
		id, ok := s.Tab.Lookup(k)
		if !ok {
			return false
		}
		keyIDs = append(keyIDs, id)
	}
	for _, t := range s.Types(kind) {
		ok := true
		for _, id := range labelIDs {
			if !t.labels.Contains(id) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, id := range keyIDs {
			if t.props.Get(id) == nil {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
