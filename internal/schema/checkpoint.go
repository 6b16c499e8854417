package schema

import (
	"fmt"
	"sort"

	"pghive/internal/pg"
	"pghive/internal/sketch"
)

// Checkpoint codec: a complete, deterministic wire encoding of the evolving
// schema — the intern table first, then every type with its full evidence
// (property statistics, value stats, endpoint degrees, members) in interned
// form. Encoding the same schema twice yields identical bytes (ID slices
// are sorted, the symtab serializes in assignment order, and residual map
// iteration is sorted), which is what lets the crash/resume tests compare
// checkpoints directly. Restoring the symtab verbatim is what keeps ID
// assignment — and therefore the rest of the stream — deterministic across
// a resume.

// Codec bounds: untrusted counts are capped, and no count preallocates more
// than maxPrealloc entries (decoders grow past it by appending), so corrupt
// checkpoints cannot drive huge allocations.
const (
	maxTypes    = 1 << 24
	maxLabels   = 1 << 16
	maxProps    = 1 << 24
	maxMembers  = 1 << 40
	maxDegrees  = 1 << 40
	maxHashes   = distinctHashCap
	maxPrealloc = 1 << 12
)

// WriteSchema encodes the schema onto a wire stream. Errors surface at the
// caller's Flush.
func WriteSchema(w *pg.WireWriter, s *Schema) error {
	WriteSymtab(w, s.Tab)
	for _, types := range [][]*Type{s.NodeTypes, s.EdgeTypes} {
		w.Uvarint(uint64(len(types)))
		for _, t := range types {
			if err := writeType(w, t); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadSchema decodes a schema written by WriteSchema.
func ReadSchema(r *pg.WireReader) (*Schema, error) {
	tab, err := ReadSymtab(r)
	if err != nil {
		return nil, fmt.Errorf("schema: %w", err)
	}
	s := NewSchemaWith(tab)
	for pass, kind := range []ElementKind{NodeKind, EdgeKind} {
		n, err := r.Uvarint(maxTypes)
		if err != nil {
			return nil, fmt.Errorf("schema: type count (pass %d): %w", pass, err)
		}
		for i := uint64(0); i < n; i++ {
			t, err := readType(r, tab, kind)
			if err != nil {
				return nil, fmt.Errorf("schema: %v type %d: %w", kind, i, err)
			}
			s.Add(t)
		}
	}
	return s, nil
}

func writeIDSet(w *pg.WireWriter, s IDSet) {
	w.Uvarint(uint64(len(s)))
	for _, id := range s {
		w.Uvarint(uint64(id))
	}
}

func readIDSet(r *pg.WireReader, tab *Symtab) (IDSet, error) {
	n, err := r.Uvarint(maxLabels)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	s := make(IDSet, 0, n)
	last := int64(-1)
	for i := uint64(0); i < n; i++ {
		id, err := r.Uvarint(uint64(tab.Strings()))
		if err != nil {
			return nil, err
		}
		if int64(id) <= last || id >= uint64(tab.Strings()) {
			return nil, fmt.Errorf("id %d out of order or range", id)
		}
		last = int64(id)
		s = append(s, uint32(id))
	}
	return s, nil
}

// writeDegrees encodes a degree table behind a mode byte: 0 = exact
// (id, count) pairs, 1 = sketched (self-describing sketch state). pol
// parameterizes the lazy fold of pending sketched observations.
func writeDegrees(w *pg.WireWriter, deg *CounterTable, pol *EvidencePolicy) {
	if deg.sketched {
		w.Byte(1)
		deg.fold(pol)
		if deg.sk == nil {
			deg.sk = newDegreeSketch(pol)
		}
		deg.sk.write(w)
		return
	}
	w.Byte(0)
	deg.normalize()
	w.Uvarint(uint64(len(deg.ids)))
	deg.each(func(id, count uint32) {
		w.Uvarint(uint64(id))
		w.Uvarint(uint64(count))
	})
}

func readDegrees(r *pg.WireReader, tab *Symtab) (CounterTable, error) {
	var deg CounterTable
	mode, err := r.Byte()
	if err != nil {
		return deg, err
	}
	switch mode {
	case 1:
		sk, err := readDegreeSketch(r)
		if err != nil {
			return deg, err
		}
		deg.sketched = true
		deg.sk = sk
		return deg, nil
	case 0:
	default:
		return deg, fmt.Errorf("degree mode byte %d invalid", mode)
	}
	n, err := r.Uvarint(maxDegrees)
	if err != nil {
		return deg, err
	}
	if n == 0 {
		return deg, nil
	}
	deg.ids = make([]uint32, 0, min(n, maxPrealloc))
	deg.counts = make([]uint32, 0, min(n, maxPrealloc))
	last := int64(-1)
	for i := uint64(0); i < n; i++ {
		id, err := r.Uvarint(uint64(tab.Endpoints()))
		if err != nil {
			return deg, err
		}
		if int64(id) <= last || id >= uint64(tab.Endpoints()) {
			return deg, fmt.Errorf("endpoint %d out of order or range", id)
		}
		last = int64(id)
		c, err := r.Uvarint(^uint64(0))
		if err != nil {
			return deg, err
		}
		deg.ids = append(deg.ids, uint32(id))
		deg.counts = append(deg.counts, uint32(c))
	}
	return deg, nil
}

func writeType(w *pg.WireWriter, t *Type) error {
	w.Byte(byte(t.Kind))
	writeIDSet(w, t.labels)
	w.Varint(int64(t.Instances))
	w.Bool(t.Abstract)

	w.Uvarint(uint64(t.props.Len()))
	for i := 0; i < t.props.Len(); i++ {
		id, p := t.props.At(i)
		w.Uvarint(uint64(id))
		writePropStat(w, p)
	}

	if t.Kind == EdgeKind {
		writeIDSet(w, t.srcLabels)
		writeIDSet(w, t.dstLabels)
		pol := t.tab.Evidence()
		writeDegrees(w, &t.outDeg, pol)
		writeDegrees(w, &t.inDeg, pol)
	}

	w.Uvarint(uint64(len(t.Members)))
	for _, id := range t.Members {
		w.Varint(int64(id))
	}
	return nil
}

func readType(r *pg.WireReader, tab *Symtab, wantKind ElementKind) (*Type, error) {
	kindByte, err := r.Byte()
	if err != nil {
		return nil, err
	}
	if ElementKind(kindByte) != wantKind {
		return nil, fmt.Errorf("kind %d out of place (want %d)", kindByte, wantKind)
	}
	t := NewType(tab, wantKind)
	if t.labels, err = readIDSet(r, tab); err != nil {
		return nil, fmt.Errorf("labels: %w", err)
	}
	inst, err := r.Varint()
	if err != nil {
		return nil, err
	}
	t.Instances = int(inst)
	if t.Abstract, err = r.Bool(); err != nil {
		return nil, err
	}

	propCount, err := r.Uvarint(maxProps)
	if err != nil {
		return nil, err
	}
	last := int64(-1)
	for i := uint64(0); i < propCount; i++ {
		id, err := r.Uvarint(uint64(tab.Strings()))
		if err != nil {
			return nil, err
		}
		if int64(id) <= last || id >= uint64(tab.Strings()) {
			return nil, fmt.Errorf("prop id %d out of order or range", id)
		}
		last = int64(id)
		p, err := readPropStat(r)
		if err != nil {
			return nil, fmt.Errorf("prop %d: %w", id, err)
		}
		t.props.ids = append(t.props.ids, uint32(id))
		t.props.stats = append(t.props.stats, p)
	}

	if wantKind == EdgeKind {
		if t.srcLabels, err = readIDSet(r, tab); err != nil {
			return nil, fmt.Errorf("src labels: %w", err)
		}
		if t.dstLabels, err = readIDSet(r, tab); err != nil {
			return nil, fmt.Errorf("dst labels: %w", err)
		}
		if t.outDeg, err = readDegrees(r, tab); err != nil {
			return nil, fmt.Errorf("out degrees: %w", err)
		}
		if t.inDeg, err = readDegrees(r, tab); err != nil {
			return nil, fmt.Errorf("in degrees: %w", err)
		}
	}

	memberCount, err := r.Uvarint(maxMembers)
	if err != nil {
		return nil, err
	}
	if memberCount > 0 {
		t.Members = make([]pg.ID, 0, min(memberCount, maxPrealloc))
		for i := uint64(0); i < memberCount; i++ {
			id, err := r.Varint()
			if err != nil {
				return nil, err
			}
			t.Members = append(t.Members, pg.ID(id))
		}
	}
	return t, nil
}

func writeKindCounts(w *pg.WireWriter, m map[pg.Kind]int) {
	kinds := make([]int, 0, len(m))
	for k := range m {
		kinds = append(kinds, int(k))
	}
	sort.Ints(kinds)
	w.Uvarint(uint64(len(kinds)))
	for _, k := range kinds {
		w.Byte(byte(k))
		w.Varint(int64(m[pg.Kind(k)]))
	}
}

func readKindCounts(r *pg.WireReader) (map[pg.Kind]int, error) {
	n, err := r.Uvarint(256)
	if err != nil {
		return nil, err
	}
	m := make(map[pg.Kind]int, n)
	for i := uint64(0); i < n; i++ {
		k, err := r.Byte()
		if err != nil {
			return nil, err
		}
		c, err := r.Varint()
		if err != nil {
			return nil, err
		}
		m[pg.Kind(k)] = int(c)
	}
	return m, nil
}

func writePropStat(w *pg.WireWriter, p *PropStat) {
	w.Varint(int64(p.Count))
	writeKindCounts(w, p.Kinds)
	writeKindCounts(w, p.SampleKinds)
	p.Values.encode(w)
}

func readPropStat(r *pg.WireReader) (*PropStat, error) {
	p := NewPropStat()
	count, err := r.Varint()
	if err != nil {
		return nil, err
	}
	p.Count = int(count)
	if p.Kinds, err = readKindCounts(r); err != nil {
		return nil, fmt.Errorf("kinds: %w", err)
	}
	if p.SampleKinds, err = readKindCounts(r); err != nil {
		return nil, fmt.Errorf("sample kinds: %w", err)
	}
	if p.Values, err = decodeValueStat(r); err != nil {
		return nil, fmt.Errorf("values: %w", err)
	}
	return p, nil
}

// encode serializes the value-evidence accumulator behind a mode byte
// (0 = exact, 1 = sketched), including the distinct hash set or sketch
// state — resuming from a checkpoint must keep certifying uniqueness
// exactly where the crashed run left off.
func (s *ValueStat) encode(w *pg.WireWriter) {
	if s.sketched {
		w.Byte(1)
		w.Bool(s.dup)
		w.Bool(s.frontOver)
		w.Uvarint(s.n)
		writeHashSet(w, s.front)
		w.Bool(s.hll != nil)
		if s.hll != nil {
			s.hll.Write(w)
		}
	} else {
		w.Byte(0)
		w.Bool(s.dup)
		w.Bool(s.overflow)
		writeHashSet(w, s.hashes)
	}

	w.Bool(s.enumOver)
	enum := make([]string, 0, len(s.enum))
	for v := range s.enum {
		enum = append(enum, v)
	}
	sort.Strings(enum)
	w.Uvarint(uint64(len(enum)))
	for _, v := range enum {
		w.String(v)
	}

	w.Varint(int64(s.numCount))
	w.Float64(s.minNum)
	w.Float64(s.maxNum)
}

func writeHashSet(w *pg.WireWriter, set map[uint64]struct{}) {
	hashes := make([]uint64, 0, len(set))
	for h := range set {
		hashes = append(hashes, h)
	}
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	w.Uvarint(uint64(len(hashes)))
	for _, h := range hashes {
		w.Uvarint(h)
	}
}

func readHashSet(r *pg.WireReader, into map[uint64]struct{}) error {
	n, err := r.Uvarint(maxHashes)
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		h, err := r.Uvarint(^uint64(0))
		if err != nil {
			return err
		}
		if into != nil {
			into[h] = struct{}{}
		}
	}
	return nil
}

func decodeValueStat(r *pg.WireReader) (*ValueStat, error) {
	mode, err := r.Byte()
	if err != nil {
		return nil, err
	}
	var s *ValueStat
	switch mode {
	case 0:
		s = NewValueStat()
		if s.dup, err = r.Bool(); err != nil {
			return nil, err
		}
		if s.overflow, err = r.Bool(); err != nil {
			return nil, err
		}
		if s.dup || s.overflow {
			s.hashes = nil
		}
		if err := readHashSet(r, s.hashes); err != nil {
			return nil, err
		}
	case 1:
		s = &ValueStat{sketched: true, enum: map[string]struct{}{}}
		if s.dup, err = r.Bool(); err != nil {
			return nil, err
		}
		if s.frontOver, err = r.Bool(); err != nil {
			return nil, err
		}
		if s.n, err = r.Uvarint(^uint64(0)); err != nil {
			return nil, err
		}
		if !s.dup {
			s.front = map[uint64]struct{}{}
		}
		if err := readHashSet(r, s.front); err != nil {
			return nil, err
		}
		if s.frontOver {
			for h := range s.front {
				if h > s.frontMax {
					s.frontMax = h
				}
			}
		}
		hasHLL, err := r.Bool()
		if err != nil {
			return nil, err
		}
		if hasHLL {
			if s.hll, err = sketch.ReadHLL(r); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("value stat mode byte %d invalid", mode)
	}

	if s.enumOver, err = r.Bool(); err != nil {
		return nil, err
	}
	if s.enumOver {
		s.enum = nil
	}
	enumCount, err := r.Uvarint(EnumCap + 2)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < enumCount; i++ {
		v, err := r.String()
		if err != nil {
			return nil, err
		}
		if s.enum != nil {
			s.enum[v] = struct{}{}
			s.enumBytes += len(v)
		}
	}

	numCount, err := r.Varint()
	if err != nil {
		return nil, err
	}
	s.numCount = int(numCount)
	if s.minNum, err = r.Float64(); err != nil {
		return nil, err
	}
	if s.maxNum, err = r.Float64(); err != nil {
		return nil, err
	}
	return s, nil
}
