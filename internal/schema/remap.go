package schema

import "sort"

// Cross-symtab ID translation: every shard of a sharded discovery run interns
// against its own Symtab, so the same label can carry different dense IDs in
// different shards. A Remap is the bridge — one dense lookup table per ID
// namespace (strings, endpoints), built by interning every symbol of the
// source table into the destination. Because interning is injective, the
// tables are injective too: remapping an IDSet never collapses elements, so
// the monotone-merge guarantees (Lemmas 1-2) survive the translation.

// Remap translates interned IDs minted by one Symtab into another's.
// The zero value (or a nil *Remap) is the identity.
type Remap struct {
	strs []uint32 // source string ID → destination string ID
	eps  []uint32 // source endpoint index → destination endpoint index
}

// NewRemap builds the translation from src to dst, interning every one of
// src's strings and endpoint IDs into dst. Symbols are visited in src's
// assignment order, so the IDs dst mints for previously unseen symbols are
// deterministic — merging shards in a fixed order yields one reproducible
// global symtab.
func NewRemap(src, dst *Symtab) *Remap {
	rm := &Remap{
		strs: make([]uint32, len(src.strs)),
		eps:  make([]uint32, len(src.eps)),
	}
	for i, s := range src.strs {
		rm.strs[i] = dst.Intern(s)
	}
	for i, ep := range src.eps {
		rm.eps[i] = dst.InternEp(ep)
	}
	return rm
}

// Str translates a source string ID.
func (rm *Remap) Str(id uint32) uint32 {
	if rm == nil {
		return id
	}
	return rm.strs[id]
}

// Ep translates a source endpoint index.
func (rm *Remap) Ep(ix uint32) uint32 {
	if rm == nil {
		return ix
	}
	return rm.eps[ix]
}

// StrTable returns the string translation table (nil for the identity).
func (rm *Remap) StrTable() []uint32 {
	if rm == nil {
		return nil
	}
	return rm.strs
}

// EpTable returns the endpoint translation table (nil for the identity).
func (rm *Remap) EpTable() []uint32 {
	if rm == nil {
		return nil
	}
	return rm.eps
}

// RemapIDs maps a sorted IDSet through a translation table, returning a
// fresh sorted IDSet. A nil table is the identity (the set is cloned). The
// table need not be monotone — destination symtabs assign IDs in their own
// observation order — so the result is re-sorted; injectivity of interning
// guarantees the output has the same cardinality as the input.
func RemapIDs(ids IDSet, table []uint32) IDSet {
	if len(ids) == 0 {
		return nil
	}
	out := make(IDSet, len(ids))
	if table == nil {
		copy(out, ids)
		return out
	}
	sorted := true
	for i, id := range ids {
		out[i] = table[id]
		if i > 0 && out[i] <= out[i-1] {
			sorted = false
		}
	}
	if !sorted {
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	}
	return out
}

// MergeRemapped folds other's counts into c, translating other's endpoint
// indexes through eps first (nil eps = plain Merge). other is normalized but
// its counts are not mutated.
func (c *CounterTable) MergeRemapped(other *CounterTable, eps []uint32) {
	if eps == nil {
		c.Merge(other)
		return
	}
	other.normalize()
	if len(other.ids) == 0 {
		c.normalize()
		return
	}
	// Build the translated view as an (id, count) pair list, sort it by the
	// destination id, and reuse the ordinary sorted merge.
	tmp := CounterTable{
		ids:    make([]uint32, len(other.ids)),
		counts: make([]uint32, len(other.ids)),
	}
	for i, id := range other.ids {
		tmp.ids[i] = eps[id]
		tmp.counts[i] = other.counts[i]
	}
	sort.Sort(&counterPairs{&tmp})
	c.Merge(&tmp)
}

// counterPairs sorts a CounterTable's parallel id/count slices by id
// (translation through an arbitrary table can break the sorted invariant).
type counterPairs struct{ c *CounterTable }

func (p *counterPairs) Len() int           { return len(p.c.ids) }
func (p *counterPairs) Less(i, j int) bool { return p.c.ids[i] < p.c.ids[j] }
func (p *counterPairs) Swap(i, j int) {
	p.c.ids[i], p.c.ids[j] = p.c.ids[j], p.c.ids[i]
	p.c.counts[i], p.c.counts[j] = p.c.counts[j], p.c.counts[i]
}

// MergeRemapped folds other into t, translating every interned ID of other
// through rm (nil = identity; other must then share t's table). t's own tab
// binding is unchanged — rm must map into t's table. Evidence accumulators
// (PropStat) are merged by value, so other remains structurally intact but
// must not be merged anywhere else afterwards (its evidence is now counted
// in t).
func (t *Type) MergeRemapped(other *Type, rm *Remap) {
	if t.Kind != other.Kind {
		panic("schema: merging types of different kinds")
	}
	t.labels.Union(RemapIDs(other.labels, rm.StrTable()))
	pol := t.tab.Evidence()
	for i := 0; i < other.props.Len(); i++ {
		id, p := other.props.At(i)
		t.props.getOrCreatePol(rm.Str(id), pol).Merge(p)
	}
	t.Instances += other.Instances
	if t.Kind == EdgeKind {
		t.srcLabels.Union(RemapIDs(other.srcLabels, rm.StrTable()))
		t.dstLabels.Union(RemapIDs(other.dstLabels, rm.StrTable()))
		t.outDeg.mergeEvidence(&other.outDeg, rm.EpTable(), t.tab, pol)
		t.inDeg.mergeEvidence(&other.inDeg, rm.EpTable(), t.tab, pol)
	}
	t.Members = append(t.Members, other.Members...)
	if t.Labeled() {
		t.Abstract = false
	}
}

// RebindRemapped rebinds t in place to tab, translating every interned ID
// through rm. After the call t behaves exactly as if its evidence had been
// interned against tab from the start. The shard-merge driver uses this to
// lift a finished shard type into the global symtab without deep-copying
// its evidence; the source schema must be discarded afterwards.
func (t *Type) RebindRemapped(tab *Symtab, rm *Remap) {
	t.tab = tab
	t.labels = RemapIDs(t.labels, rm.StrTable())
	t.remapProps(rm)
	if t.Kind == EdgeKind {
		t.srcLabels = RemapIDs(t.srcLabels, rm.StrTable())
		t.dstLabels = RemapIDs(t.dstLabels, rm.StrTable())
		t.outDeg.remapInPlace(rm.EpTable())
		t.inDeg.remapInPlace(rm.EpTable())
	}
}

// remapProps translates the property table's key IDs, restoring the
// sorted-parallel-slices invariant under the new ID order.
func (t *Type) remapProps(rm *Remap) {
	table := rm.StrTable()
	if table == nil || t.props.Len() == 0 {
		return
	}
	for i, id := range t.props.ids {
		t.props.ids[i] = table[id]
	}
	sort.Sort(&propPairs{&t.props})
}

// propPairs sorts a PropTable's parallel id/stat slices by id.
type propPairs struct{ pt *PropTable }

func (p *propPairs) Len() int           { return len(p.pt.ids) }
func (p *propPairs) Less(i, j int) bool { return p.pt.ids[i] < p.pt.ids[j] }
func (p *propPairs) Swap(i, j int) {
	p.pt.ids[i], p.pt.ids[j] = p.pt.ids[j], p.pt.ids[i]
	p.pt.stats[i], p.pt.stats[j] = p.pt.stats[j], p.pt.stats[i]
}

// remapInPlace translates the counter's endpoint indexes through table and
// re-sorts (nil table = no-op beyond normalization). Sketched state (sk,
// rawPending) is keyed by raw global endpoint IDs and passes through
// untouched — that is the invariant that makes sketches shard-mergeable.
func (c *CounterTable) remapInPlace(table []uint32) {
	c.normalize()
	if table == nil || len(c.ids) == 0 {
		return
	}
	for i, id := range c.ids {
		c.ids[i] = table[id]
	}
	sort.Sort(&counterPairs{c})
}
