package pg

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// poolBatch builds a batch whose strings are massively repeated — the shape
// interning exists for: every node is a Person with the same two property
// keys.
func poolBatch(nodes int) *Batch {
	b := &Batch{}
	for i := 0; i < nodes; i++ {
		b.Nodes = append(b.Nodes, NodeRecord{
			ID:     ID(i + 1),
			Labels: []string{"Person"},
			Props:  Properties{"name": Str("p"), "age": Int(int64(i))},
		})
	}
	for i := 0; i < nodes/2; i++ {
		b.Edges = append(b.Edges, EdgeRecord{
			ID: ID(nodes + i + 1), Labels: []string{"KNOWS"},
			Src: ID(2*i + 1), Dst: ID(2*i + 2),
			SrcLabels: []string{"Person"}, DstLabels: []string{"Person"},
			Props: Properties{"since": Int(2020)},
		})
	}
	return b
}

func encodeBatch(t testing.TB, b *Batch) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWireWriter(&buf)
	if err := WriteBatch(w, b); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWireReaderReset(t *testing.T) {
	b := poolBatch(8)
	enc := encodeBatch(t, b)
	r := NewWireReader(bytes.NewReader(enc))
	first, err := ReadBatch(r)
	if err != nil {
		t.Fatal(err)
	}
	// Same reader, fresh stream: the warm scratch buffer and intern table
	// must decode an identical batch.
	r.Reset(bytes.NewReader(enc))
	second, err := ReadBatch(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Nodes) != len(second.Nodes) || len(first.Edges) != len(second.Edges) {
		t.Fatalf("reset decode differs: %d/%d vs %d/%d nodes/edges",
			len(first.Nodes), len(first.Edges), len(second.Nodes), len(second.Edges))
	}
	for i := range first.Nodes {
		if first.Nodes[i].Labels[0] != second.Nodes[i].Labels[0] {
			t.Fatalf("node %d labels differ after reset", i)
		}
	}
}

func TestInternedStringRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWireWriter(&buf)
	long := strings.Repeat("x", maxInternLen+1)
	huge := strings.Repeat("y", 3*scratchChunk+17)
	for _, s := range []string{"Person", "Person", "", "age", long, huge, "Person"} {
		w.String(s)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewWireReader(bytes.NewReader(buf.Bytes()))
	for i, want := range []string{"Person", "Person", "", "age", long, huge, "Person"} {
		got, err := r.InternedString()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("read %d = %q, want %q", i, got[:min2(len(got), 32)], want[:min2(len(want), 32)])
		}
	}
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestInternTableBounded: strings past the entry cap still decode correctly,
// the table just stops growing.
func TestInternTableBounded(t *testing.T) {
	var buf bytes.Buffer
	w := NewWireWriter(&buf)
	const n = maxInternEntries + 64
	for i := 0; i < n; i++ {
		w.String(fmt.Sprintf("k%06d", i))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewWireReader(bytes.NewReader(buf.Bytes()))
	for i := 0; i < n; i++ {
		got, err := r.InternedString()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("k%06d", i); got != want {
			t.Fatalf("string %d = %q, want %q", i, got, want)
		}
	}
	if len(r.intern) > maxInternEntries {
		t.Fatalf("intern table grew past the cap: %d", len(r.intern))
	}
}

// TestReadBatchAllocBound pins the interning win: with a warm reader, a
// decode's allocations are bounded by the batch's structural needs (record
// slices, label slices, property maps, value strings) — the label and
// property-key strings themselves, ~4 per element here, come from the intern
// table and cost nothing. Without interning this workload allocates roughly
// double.
func TestReadBatchAllocBound(t *testing.T) {
	const nodes = 256
	b := poolBatch(nodes)
	enc := encodeBatch(t, b)
	r := NewWireReader(bytes.NewReader(enc))
	if _, err := ReadBatch(r); err != nil { // warm the intern table
		t.Fatal(err)
	}
	elements := len(b.Nodes) + len(b.Edges)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(bytes.NewReader(enc))
		if _, err := ReadBatch(r); err != nil {
			t.Fatal(err)
		}
	})
	// Structural floor per element: labels slice + props map + one value
	// string ≈ 3–4 allocs. The uninterned decoder adds ~4 string allocs per
	// element on top (label, key, src/dst labels), landing near 8/element.
	// 5.5/element holds the interned path with headroom while staying far
	// below the uninterned cost.
	if perElem := allocs / float64(elements); perElem > 5.5 {
		t.Fatalf("ReadBatch allocs/element = %.2f (total %.0f for %d elements) — interning regressed",
			perElem, allocs, elements)
	}
}

// BenchmarkReadBatchWarm measures the steady-state decode path over many
// streams: one reader, warm intern table, reused scratch buffer.
func BenchmarkReadBatchWarm(bm *testing.B) {
	b := poolBatch(512)
	enc := encodeBatch(bm, b)
	r := NewWireReader(bytes.NewReader(enc))
	if _, err := ReadBatch(r); err != nil {
		bm.Fatal(err)
	}
	bm.SetBytes(int64(len(enc)))
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		r.Reset(bytes.NewReader(enc))
		if _, err := ReadBatch(r); err != nil {
			bm.Fatal(err)
		}
	}
}

// BenchmarkReadBatchCold decodes with a fresh reader every time — a cold
// scratch buffer and intern table per batch, the cost Reset avoids.
func BenchmarkReadBatchCold(bm *testing.B) {
	b := poolBatch(512)
	enc := encodeBatch(bm, b)
	bm.SetBytes(int64(len(enc)))
	bm.ReportAllocs()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		if _, err := ReadBatch(NewWireReader(bytes.NewReader(enc))); err != nil {
			bm.Fatal(err)
		}
	}
}

// TestReadBatchPreallocCapped: a header's counts are untrusted, so a
// 4-byte input declaring 2^20 nodes must fail with EOF after preallocating
// at most maxBatchPrealloc records, not the 2^20 it claims (~40 MB).
func TestReadBatchPreallocCapped(t *testing.T) {
	for _, header := range [][]byte{
		{0x80, 0x80, 0x40, 0x00}, // 2^20 nodes
		{0x00, 0x80, 0x80, 0x40}, // 2^20 edges
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := ReadBatch(NewWireReader(bytes.NewReader(header))); err == nil {
			t.Fatalf("header %x without records decoded", header)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
			t.Errorf("header %x allocated %d bytes before failing, want at most 8 MiB", header, got)
		}
	}
}
