package stream

import (
	"fmt"
	"sync"
	"testing"

	"pghive/internal/core"
	"pghive/internal/pg"
)

func person(i int) pg.NodeRecord {
	return pg.NodeRecord{
		ID:     pg.ID(i),
		Labels: []string{"Person"},
		Props:  pg.Properties{"name": pg.Str(fmt.Sprintf("p%d", i)), "age": pg.Int(int64(i % 80))},
	}
}

func TestCollectorAutoFlush(t *testing.T) {
	c := NewCollector(core.NewPipeline(core.DefaultConfig()), 10)
	for i := 0; i < 25; i++ {
		c.AddNode(person(i))
	}
	elements, flushes, buffered := c.Stats()
	if elements != 25 {
		t.Errorf("elements = %d, want 25", elements)
	}
	if flushes != 2 {
		t.Errorf("flushes = %d, want 2 (two full batches)", flushes)
	}
	if buffered != 5 {
		t.Errorf("buffered = %d, want 5", buffered)
	}
	def := c.Finalize()
	if len(def.Nodes) != 1 || def.Nodes[0].Instances != 25 {
		t.Errorf("def = %d types / %d instances, want 1/25", len(def.Nodes), def.Nodes[0].Instances)
	}
	if _, flushes, buffered := c.Stats(); buffered != 0 || flushes != 3 {
		t.Errorf("after Finalize: flushes=%d buffered=%d, want 3/0", flushes, buffered)
	}
}

func TestCollectorEdges(t *testing.T) {
	c := NewCollector(core.NewPipeline(core.DefaultConfig()), 100)
	for i := 0; i < 10; i++ {
		c.AddNode(person(i))
	}
	for i := 0; i < 9; i++ {
		c.AddEdge(pg.EdgeRecord{
			ID: pg.ID(i), Labels: []string{"KNOWS"},
			Src: pg.ID(i), Dst: pg.ID(i + 1),
			SrcLabels: []string{"Person"}, DstLabels: []string{"Person"},
		})
	}
	def := c.Finalize()
	if len(def.Edges) != 1 || def.Edges[0].Name != "KNOWS" {
		t.Fatalf("edges = %+v, want one KNOWS type", def.Edges)
	}
}

func TestCollectorConcurrentProducers(t *testing.T) {
	c := NewCollector(core.NewPipeline(core.DefaultConfig()), 50)
	var wg sync.WaitGroup
	const producers, perProducer = 8, 200
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				c.AddNode(person(p*perProducer + i))
			}
		}(p)
	}
	wg.Wait()
	def := c.Finalize()
	total := 0
	for _, n := range def.Nodes {
		total += n.Instances
	}
	if total != producers*perProducer {
		t.Errorf("instances = %d, want %d (no element lost under concurrency)", total, producers*perProducer)
	}
}

func TestCollectorDefaultBatchSize(t *testing.T) {
	c := NewCollector(core.NewPipeline(core.DefaultConfig()), 0)
	if c.batchSize != DefaultBatchSize {
		t.Errorf("batchSize = %d, want %d", c.batchSize, DefaultBatchSize)
	}
}

func TestCollectorFlushEmptyIsNoop(t *testing.T) {
	c := NewCollector(core.NewPipeline(core.DefaultConfig()), 10)
	c.Flush()
	c.Close()
	if _, flushes, _ := c.Stats(); flushes != 0 {
		t.Errorf("empty flushes counted: %d", flushes)
	}
}

func TestCollectorSchemaVisibleMidStream(t *testing.T) {
	c := NewCollector(core.NewPipeline(core.DefaultConfig()), 5)
	for i := 0; i < 7; i++ {
		c.AddNode(person(i))
	}
	// One batch flushed; the schema already covers Person.
	s := c.Schema()
	if len(s.NodeTypes) != 1 || s.NodeTypes[0].Instances != 5 {
		t.Errorf("mid-stream schema = %d types / %d instances, want 1/5",
			len(s.NodeTypes), s.NodeTypes[0].Instances)
	}
}
