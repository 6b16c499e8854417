package schema

import (
	"maps"
	"slices"
)

// Clone returns a deep copy of s whose encoding equals that of
// ReadSchema(WriteSchema(s)), without the codec. Like WriteSchema it first
// settles s's degree tables (folding pending sketched observations,
// normalizing exact counters); like ReadSchema it shares nothing mutable
// with s and leaves the evidence policy for the caller to install
// (SetEvidencePolicy). MergeSchemas consumes what it is handed, so a fold
// over live schemas takes clones.
func (s *Schema) Clone() *Schema {
	c := NewSchemaWith(s.Tab.clone())
	for _, types := range [][]*Type{s.NodeTypes, s.EdgeTypes} {
		for _, t := range types {
			c.Add(t.clone(c.Tab))
		}
	}
	return c
}

// clone copies the intern table without its evidence policy.
func (t *Symtab) clone() *Symtab {
	return &Symtab{
		strs:  slices.Clone(t.strs),
		byStr: maps.Clone(t.byStr),
	}
}

// clone copies the type, bound to tab.
func (t *Type) clone(tab *Symtab) *Type {
	pol := t.tab.Evidence()
	c := *t
	c.tab = tab
	c.Members = slices.Clone(t.Members)
	c.labels = t.labels.Clone()
	c.srcLabels = t.srcLabels.Clone()
	c.dstLabels = t.dstLabels.Clone()
	c.props = PropTable{ids: t.props.ids.Clone(), stats: make([]*PropStat, len(t.props.stats))}
	for i, p := range t.props.stats {
		c.props.stats[i] = p.clone()
	}
	c.outDeg = t.outDeg.clone(pol)
	c.inDeg = t.inDeg.clone(pol)
	return &c
}

func (p *PropStat) clone() *PropStat {
	return &PropStat{
		Count:       p.Count,
		Kinds:       maps.Clone(p.Kinds),
		SampleKinds: maps.Clone(p.SampleKinds),
		Values:      p.Values.clone(),
	}
}

// clone copies the accumulator without its evidence policy.
func (s *ValueStat) clone() *ValueStat {
	c := *s
	c.hashes = maps.Clone(s.hashes)
	c.front = maps.Clone(s.front)
	c.sample = slices.Clone(s.sample)
	c.enum = maps.Clone(s.enum)
	if s.hll != nil {
		c.hll = s.hll.Clone()
	}
	c.pol = nil
	return &c
}

// clone settles the table under pol and copies its settled state.
func (c *CounterTable) clone(pol *EvidencePolicy) CounterTable {
	c.settle(pol)
	if c.sk != nil {
		return CounterTable{sk: c.sk.clone()}
	}
	return CounterTable{ids: slices.Clone(c.ids), counts: slices.Clone(c.counts)}
}
