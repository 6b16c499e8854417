package schema

import (
	"slices"
	"sort"
)

// Cross-symtab ID translation: every shard of a sharded discovery run interns
// against its own Symtab, so the same label can carry different dense IDs in
// different shards. A remap table is the bridge, built by interning every
// string of the source table into the destination. Because interning is
// injective, the table is injective too: remapping an IDSet never collapses
// elements, so the monotone-merge guarantees (Lemmas 1-2) survive the
// translation. Degree evidence needs none: it is keyed by raw endpoint IDs.

// NewRemap returns the table translating src's string IDs into dst's
// (table[srcID] = dstID), interning every one of src's strings into dst.
// Strings are visited in src's assignment order, so the IDs dst mints for
// previously unseen strings are deterministic — merging shards in a fixed
// order yields one reproducible global symtab.
func NewRemap(src, dst *Symtab) []uint32 {
	table := make([]uint32, len(src.strs))
	for i, s := range src.strs {
		table[i] = dst.Intern(s)
	}
	return table
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
		slices.Sort(out)
	}
	return out
}

// RebindRemapped rebinds t in place to tab, translating every interned ID
// through table (NewRemap's, into tab). After the call t behaves exactly as
// if its evidence had been interned against tab from the start.
// MergeSchemas uses this to lift a finished shard type into the global
// symtab without deep-copying its evidence; the source schema must be
// discarded afterwards.
func (t *Type) RebindRemapped(tab *Symtab, table []uint32) {
	t.tab = tab
	t.labels = RemapIDs(t.labels, table)
	t.remapProps(table)
	if t.Kind == EdgeKind {
		t.srcLabels = RemapIDs(t.srcLabels, table)
		t.dstLabels = RemapIDs(t.dstLabels, table)
	}
}

// remapProps translates the property table's key IDs, restoring the
// sorted-parallel-slices invariant under the new ID order.
func (t *Type) remapProps(table []uint32) {
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
