package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pghive/internal/pg"
	"pghive/internal/schema"
)

// TestAmpersandLabelsStayDistinct is the StringSet.Key() collision
// regression: under the old "&"-joined key, {"a&b"} and {"a", "b"} rendered
// to the same string and the two types fused. With length-prefixed set keys
// and hashed ID-tuple type lookup they must stay separate end to end.
func TestAmpersandLabelsStayDistinct(t *testing.T) {
	g := pg.NewGraph()
	for i := 0; i < 30; i++ {
		g.AddNode([]string{"a&b"}, pg.Properties{"x": pg.Int(int64(i))})
		g.AddNode([]string{"a", "b"}, pg.Properties{"y": pg.Str("s")})
	}
	for _, m := range []Method{MethodELSH, MethodMinHash} {
		cfg := DefaultConfig()
		cfg.Method = m
		res := Discover(pg.NewSliceSource(g.SplitRandom(3, 1)...), cfg)
		if len(res.Schema.NodeTypes) != 2 {
			t.Fatalf("%v: got %d node types, want 2 ({a&b} vs {a,b})", m, len(res.Schema.NodeTypes))
		}
		single := res.Schema.FindByLabelSet(schema.NodeKind, schema.IDSet{mustLookup(t, res.Schema, "a&b")})
		if single == nil {
			t.Fatalf("%v: no type with label set {a&b}", m)
		}
		if single.Prop("y") != nil {
			t.Errorf("%v: {a&b} type absorbed {a,b}'s property", m)
		}
		if single.Prop("x") == nil {
			t.Errorf("%v: {a&b} type lost its own property", m)
		}
	}
}

// TestSymtabIDsDeterministic: symbol IDs are assigned in stream order — per
// element shape, labels in list order, then the sorted keys — so identical
// runs checkpoint identical symbol tables, as a single pipeline and as a
// 2-shard fleet. The stream's first element introduces ten keys at once,
// which interning in map iteration order would number differently from run
// to run.
func TestSymtabIDsDeterministic(t *testing.T) {
	labels := []string{"Person", "Org", "Post"}
	var batches []*pg.Batch
	for b := 0; b < 4; b++ {
		batch := &pg.Batch{}
		for i := 0; i < 40; i++ {
			n := b*40 + i
			props := pg.Properties{}
			for k := 0; k < 10; k++ {
				if n == 0 || (n+k)%3 != 0 {
					props[fmt.Sprintf("key%d", k)] = pg.Int(int64(n))
				}
			}
			batch.Nodes = append(batch.Nodes, pg.NodeRecord{ID: pg.ID(n), Labels: []string{labels[n%3]}, Props: props})
			if n > 0 {
				batch.Edges = append(batch.Edges, pg.EdgeRecord{
					ID: pg.ID(n), Labels: []string{"LINKS"}, Src: pg.ID(n - 1), Dst: pg.ID(n),
					SrcLabels: []string{labels[(n-1)%3]}, DstLabels: []string{labels[n%3]},
					Props: pg.Properties{"since": pg.Int(1), "weight": pg.Int(2), "via": pg.Str("x"), fmt.Sprintf("tag%d", n%4): pg.Int(3)},
				})
			}
		}
		batches = append(batches, batch)
	}
	// A fleet's checkpoint pairs the saving shard's newest section with the
	// latest sections of the rest, so which checkpoint carries a shard's
	// k-th section, and whether one carries a shard's section before its
	// first save, depends on scheduling: compare, per section, the sequence
	// of non-empty symbol tables it takes on.
	symtabs := func(t *testing.T, cfg Config) [][][]byte {
		ck := &statesCheckpointer{}
		if _, err := Run(pg.AsErrSource(pg.NewSliceSource(batches...)), cfg, RunOptions{Checkpoint: ck}); err != nil {
			t.Fatal(err)
		}
		var seqs [][][]byte
		for c, state := range ck.states {
			schemas, err := DecodeCheckpointSchemas(state, cfg)
			if err != nil {
				t.Fatalf("checkpoint %d: %v", c, err)
			}
			if seqs == nil {
				seqs = make([][][]byte, len(schemas))
			}
			for i, s := range schemas {
				if s.Tab.Strings() == 0 {
					continue
				}
				var buf bytes.Buffer
				w := pg.NewWireWriter(&buf)
				schema.WriteSymtab(w, s.Tab)
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				if n := len(seqs[i]); n == 0 || !bytes.Equal(seqs[i][n-1], buf.Bytes()) {
					seqs[i] = append(seqs[i], buf.Bytes())
				}
			}
		}
		return seqs
	}
	for _, shards := range []int{0, 2} {
		cfg := DefaultConfig()
		cfg.Shards = shards
		first := symtabs(t, cfg)
		for run := 1; run < 10; run++ {
			got := symtabs(t, cfg)
			if len(got) != len(first) {
				t.Fatalf("shards=%d run %d: %d checkpoint sections, run 0 had %d", shards, run, len(got), len(first))
			}
			for i := range got {
				if len(got[i]) != len(first[i]) {
					t.Fatalf("shards=%d run %d: section %d took %d symbol tables, run 0's %d", shards, run, i, len(got[i]), len(first[i]))
				}
				for k := range got[i] {
					if !bytes.Equal(got[i][k], first[i][k]) {
						t.Fatalf("shards=%d run %d: section %d's symbol table %d differs from run 0's", shards, run, i, k)
					}
				}
			}
		}
	}
}

func mustLookup(t *testing.T, s *schema.Schema, label string) uint32 {
	t.Helper()
	id, ok := s.Tab.Lookup(label)
	if !ok {
		t.Fatalf("label %q not interned", label)
	}
	return id
}

// TestResumePGCK2Rejected: a checkpoint from the pre-interning format must
// be rejected by its magic, not misparsed into a half-restored pipeline.
func TestResumePGCK2Rejected(t *testing.T) {
	stale := append([]byte("PGCK2"), make([]byte, 64)...)
	_, err := Run(pg.AsErrSource(pg.NewSliceSource()), DefaultConfig(), RunOptions{Resume: stale})
	if err == nil {
		t.Fatal("resuming a PGCK2 checkpoint succeeded, want magic error")
	}
	if !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("error %q does not mention the checkpoint", err)
	}
}

// TestResumePGCK3Rejected: a checkpoint from the pre-sketch evidence format
// must be rejected by its magic — its degree and value-stat sections carry
// no mode bytes, so decoding it under today's layout would misparse.
func TestResumePGCK3Rejected(t *testing.T) {
	stale := append([]byte("PGCK3"), make([]byte, 64)...)
	_, err := Run(pg.AsErrSource(pg.NewSliceSource()), DefaultConfig(), RunOptions{Resume: stale})
	if err == nil {
		t.Fatal("resuming a PGCK3 checkpoint succeeded, want magic error")
	}
	if !strings.Contains(err.Error(), "checkpoint") {
		t.Errorf("error %q does not mention the checkpoint", err)
	}
}

// TestResumeRejectsPreRawKeyMagics: PGCK9 checkpoints and PGCK10 fleet
// containers key exact degree rows by interned endpoint index and carry
// the symtab's endpoint section, so they must be refused by their magic
// rather than misparsed under the raw-key layout — a PGCK9 magic even in
// front of a valid body.
func TestResumeRejectsPreRawKeyMagics(t *testing.T) {
	batches := faultFreeBatches(t, 40, 2)
	ck := &statesCheckpointer{}
	if _, err := Run(pg.AsErrSource(pg.NewSliceSource(batches[0])), DefaultConfig(), RunOptions{Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	stale := append([]byte("PGCK9"), ck.states[0][len(checkpointMagic):]...)
	if _, err := Run(pg.AsErrSource(pg.NewSliceSource()), DefaultConfig(), RunOptions{Resume: stale}); err == nil {
		t.Error("resuming a PGCK9 checkpoint succeeded, want magic error")
	}
	cfg := DefaultConfig()
	cfg.Shards = 2
	staleFleet := append([]byte("PGCK10"), make([]byte, 64)...)
	if _, err := Run(pg.AsErrSource(pg.NewSliceSource()), cfg, RunOptions{Resume: staleFleet}); err == nil {
		t.Error("resuming a PGCK10 fleet container succeeded, want magic error")
	}
}

// TestResumeAcrossInterning: the checkpoint must restore the symbol table
// with its exact ID assignment — the resumed pipeline keeps interning where
// the writer left off, and replaying the remaining batches yields an
// identical finalized schema AND an identical symtab.
func TestResumeAcrossInterning(t *testing.T) {
	batches := engineGraph(t, 300).SplitRandom(6, 9)
	cfg := DefaultConfig()

	p := NewPipeline(cfg)
	ck := &statesCheckpointer{}
	if _, err := p.drainFT(pg.AsErrSource(pg.NewSliceSource(batches[:3]...)), ck, resumeState{}); err != nil {
		t.Fatal(err)
	}
	restored := NewPipeline(cfg)
	if _, _, err := restore(ck.states[len(ck.states)-1], p.cfg, []*Pipeline{restored}, restored.clock); err != nil {
		t.Fatal(err)
	}

	// The restored table must carry the writer's exact string→ID map.
	tab, rtab := p.schema.Tab, restored.schema.Tab
	if rtab.Strings() != tab.Strings() {
		t.Fatalf("restored symtab has %d strings, want %d", rtab.Strings(), tab.Strings())
	}
	for id := 0; id < tab.Strings(); id++ {
		if got, want := rtab.Str(uint32(id)), tab.Str(uint32(id)); got != want {
			t.Fatalf("restored symtab id %d = %q, want %q", id, got, want)
		}
	}

	for _, b := range batches[3:] {
		p.ProcessBatch(b)
		restored.ProcessBatch(b)
	}
	defsEqual(t, "resume-across-interning", p.Finalize(), restored.Finalize())
	// Interning the remainder of the stream must have stayed in lockstep.
	if restored.schema.Tab.Strings() != p.schema.Tab.Strings() {
		t.Errorf("post-resume symtab diverged: %d vs %d strings",
			restored.schema.Tab.Strings(), p.schema.Tab.Strings())
	}
}

// TestSamplerStateRoundTrip pins the composite-key sampler codec: counters
// written under (kind tag | key ID) keys restore exactly, so post-resume
// sampling decisions continue the original sequence.
func TestSamplerStateRoundTrip(t *testing.T) {
	s := newSampler(0.1, 2, 7)
	for i := 0; i < 40; i++ {
		decide(s, sampleNodes, 0, "name")
		decide(s, sampleEdges, 0, "name")
		decide(s, sampleNodes, 3, "age")
	}
	var buf bytes.Buffer
	w := pg.NewWireWriter(&buf)
	s.writeState(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	restored := newSampler(0.1, 2, 7)
	if err := restored.readState(pg.NewWireReader(bytes.NewReader(buf.Bytes()))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if decide(s, sampleNodes, 0, "name") != decide(restored, sampleNodes, 0, "name") {
			t.Fatal("node decisions diverge after state restore")
		}
		if decide(s, sampleEdges, 0, "name") != decide(restored, sampleEdges, 0, "name") {
			t.Fatal("edge decisions diverge after state restore")
		}
		if decide(s, sampleNodes, 3, "age") != decide(restored, sampleNodes, 3, "age") {
			t.Fatal("decisions diverge for a second key")
		}
	}
}

// TestSamplerNodeEdgeKeysIndependent: the same interned key ID must keep
// separate counters per element kind (the samplerEdgeTag bit).
func TestSamplerNodeEdgeKeysIndependent(t *testing.T) {
	s := newSampler(0.0, 3, 1)
	for i := 0; i < 3; i++ {
		if !decide(s, sampleNodes, 5, "k") {
			t.Fatal("below-minimum node observation not sampled")
		}
	}
	// Node counter is exhausted; the edge counter for the same ID must
	// still be at zero and sample its first min observations.
	for i := 0; i < 3; i++ {
		if !decide(s, sampleEdges, 5, "k") {
			t.Fatal("edge counter shared state with node counter")
		}
	}
}
