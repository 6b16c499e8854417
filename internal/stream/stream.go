// Package stream adapts live element insertions to the incremental
// pipeline: a thread-safe Collector buffers nodes and edges as they arrive
// and flushes them into a core.Pipeline in fixed-size batches — the
// "dynamic environments where updates are frequent" deployment the paper
// targets (§4.6). The schema is queryable at any time and grows
// monotonically with every flush.
package stream

import (
	"sync"

	"pghive/internal/core"
	"pghive/internal/pg"
	"pghive/internal/schema"
)

// Collector buffers inserted elements and feeds the pipeline batch-wise.
// All methods are safe for concurrent use.
type Collector struct {
	mu        sync.Mutex
	pipe      *core.Pipeline
	batchSize int
	buf       pg.Batch
	flushes   int
	elements  int
	// Adaptive batch sizing (active when the pipeline runs under a memory
	// budget): memBudget mirrors Config.MemBudgetBytes and evBytes caches
	// the schema's evidence footprint after each processed batch, so the
	// flush threshold can shrink as the budget fills without re-walking the
	// schema on every insert.
	memBudget int64
	evBytes   int64
}

// DefaultBatchSize is used when NewCollector receives batchSize ≤ 0.
const DefaultBatchSize = 10_000

// NewCollector wraps a pipeline. Each time batchSize buffered elements
// accumulate, they are flushed into the pipeline as one batch. When the
// pipeline runs under a memory budget (Config.MemBudgetBytes), the flush
// threshold adapts: as retained evidence approaches the budget, batches
// shrink — down to batchSize/8 — so the buffer stops amplifying peak memory
// right when memory is scarce.
func NewCollector(pipe *core.Pipeline, batchSize int) *Collector {
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	return &Collector{pipe: pipe, batchSize: batchSize, memBudget: pipe.Config().MemBudgetBytes}
}

// adaptiveThreshold scales a flush threshold by memory pressure: below half
// the budget the base holds; past 1/2, 3/4 and 9/10 of the budget the
// threshold drops to base/2, base/4 and base/8 (never below 1). A zero
// budget disables adaptation.
func adaptiveThreshold(base int, used, budget int64) int {
	if budget <= 0 || used*2 < budget {
		return base
	}
	t := base / 2
	switch {
	case used*10 >= budget*9:
		t = base / 8
	case used*4 >= budget*3:
		t = base / 4
	}
	if t < 1 {
		t = 1
	}
	return t
}

// thresholdLocked is the current flush threshold under the adaptive policy.
func (c *Collector) thresholdLocked() int {
	return adaptiveThreshold(c.batchSize, c.evBytes, c.memBudget)
}

// BatchThreshold reports the flush threshold currently in effect (equal to
// the configured batch size unless memory pressure has scaled it down).
func (c *Collector) BatchThreshold() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.thresholdLocked()
}

// AddNode buffers one node record, flushing if the batch is full.
func (c *Collector) AddNode(rec pg.NodeRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf.Nodes = append(c.buf.Nodes, rec)
	c.elements++
	c.maybeFlushLocked()
}

// AddEdge buffers one edge record (endpoint labels must be resolved by the
// caller, as in pg.EdgeRecord), flushing if the batch is full.
func (c *Collector) AddEdge(rec pg.EdgeRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.buf.Edges = append(c.buf.Edges, rec)
	c.elements++
	c.maybeFlushLocked()
}

func (c *Collector) maybeFlushLocked() {
	if c.buf.Len() >= c.thresholdLocked() {
		c.flushLocked()
	}
}

func (c *Collector) flushLocked() {
	if c.buf.Len() == 0 {
		return
	}
	batch := c.buf
	c.buf = pg.Batch{}
	c.pipe.ProcessBatch(&batch)
	c.flushes++
	if c.memBudget > 0 {
		// Evidence only grows when a batch is processed: re-read it now.
		c.evBytes = c.pipe.Schema().EvidenceBytes()
	}
}

// Flush forces buffered elements into the pipeline immediately.
func (c *Collector) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
}

// Close flushes any remainder; the collector stays usable (Close is a
// synonym for Flush, provided for defer-friendly call sites).
func (c *Collector) Close() { c.Flush() }

// Schema returns the pipeline's evolving schema. Call Flush first to
// include buffered elements. The returned schema aliases pipeline state:
// reading it is only safe while no other goroutine is concurrently adding
// elements (take a Finalize snapshot for concurrent consumption).
func (c *Collector) Schema() *schema.Schema {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pipe.Schema()
}

// Finalize flushes and runs post-processing, returning the schema
// definition.
func (c *Collector) Finalize() *schema.Def {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	return c.pipe.Finalize()
}

// Stats reports collector progress.
func (c *Collector) Stats() (elements, flushes, buffered int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.elements, c.flushes, c.buf.Len()
}
