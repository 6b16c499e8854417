// Package serve is the resident schema service: a long-running process that
// ingests a property-graph stream through the existing discovery engines
// (serial, overlapped or sharded, fault-tolerant, checkpointed) while
// concurrent readers query the current schema over HTTP at four progressive
// detail tiers.
//
// The performance contract is on the read path. At every EpochInterval
// batches the writer publishes an immutable Epoch — the finalized schema
// Def plus its diff against the previous epoch — through a copy-on-write
// atomic.Pointer swap, so readers never take a lock and never observe a
// half-merged schema. On top of each epoch sits a render-once response
// cache: every (epoch, tier, type-filter) response whose filter names one of
// the epoch's types is materialized exactly once (sync.Once) and then served
// as pre-encoded bytes until the next epoch swap implicitly invalidates the
// whole cache by replacing the pointer. A cache hit costs one atomic load
// and zero allocations (BenchmarkServeCacheHit, asserted in CI).
//
// Memory is O(schema), not O(epochs): the history behind /epochs keeps one
// EpochInfo row per epoch, and only the current Epoch holds a Def and a
// render cache (TestServeRetainedHeapFlatInEpochs).
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pghive/internal/obs"
	"pghive/internal/schema"
)

// Tier is one progressive detail level of the schema API, mirroring the
// indra_cogex schema-discovery tool's detail_level parameter: summary
// (counts + type names), types (per-type property statistics), patterns
// (edge connectivity triples), full (the complete schema JSON).
type Tier uint8

// Detail tiers, cheapest first.
const (
	TierSummary Tier = iota
	TierTypes
	TierPatterns
	TierFull
	numTiers
)

var tierNames = [numTiers]string{"summary", "types", "patterns", "full"}

// String returns the tier's query-parameter spelling.
func (t Tier) String() string {
	if int(t) < len(tierNames) {
		return tierNames[t]
	}
	return "unknown"
}

// ParseTier parses a ?detail= value ("" means summary).
func ParseTier(s string) (Tier, error) {
	switch s {
	case "", "summary":
		return TierSummary, nil
	case "types":
		return TierTypes, nil
	case "patterns":
		return TierPatterns, nil
	case "full":
		return TierFull, nil
	default:
		return TierSummary, fmt.Errorf("serve: unknown detail tier %q (want summary, types, patterns or full)", s)
	}
}

// Rendered is one materialized response: the pre-encoded body plus the
// one-time cost of producing it. Immutable after construction; served
// verbatim on every subsequent hit.
type Rendered struct {
	// Body is the response payload (JSON).
	Body []byte
	// RenderTime is what materializing the body cost, once.
	RenderTime time.Duration
	// TokenEstimate approximates the response's LLM token footprint
	// (len/4), mirroring the snippet the tier API follows.
	TokenEstimate int
}

// renderSlot holds one response's render-once machinery: the fast path is a
// single atomic load; the slow path funnels every racing miss through one
// sync.Once so the body is rendered exactly once per epoch.
type renderSlot struct {
	once sync.Once
	r    atomic.Pointer[Rendered]
}

func (s *renderSlot) get(render func() *Rendered) (resp *Rendered, hit bool) {
	if r := s.r.Load(); r != nil {
		return r, true
	}
	s.once.Do(func() { s.r.Store(render()) })
	return s.r.Load(), false
}

// EpochInfo is one row of the publication history: what /epochs reports
// about an epoch, and all the server keeps of it once a newer epoch is
// published. A plain value; its Diff is never mutated after publication.
type EpochInfo struct {
	// ID is core's epoch number (core.EpochSnapshot.Epoch): 1-based, and
	// continuing across a resumed ingest. 0 is the boot placeholder served
	// before the first epoch.
	ID int
	// Batches is how many batches had been extracted when the snapshot was
	// taken; Seq is the stream sequence number of the closing batch.
	Batches int
	Seq     int
	// Final marks the last epoch of a completed ingest.
	Final bool
	// Published is the wall-clock publication instant.
	Published time.Time
	// Diff is the change report against the previous epoch (empty for the
	// baseline).
	Diff schema.DiffReport
}

// Epoch is one published schema snapshot: its history row, the finalized
// Def and the render cache. Immutable, safe to retain and to read from any
// number of goroutines while the writer merges batches into the next epoch
// underneath. The server references only the current one; a superseded
// epoch lives, cache and all, exactly as long as some reader still holds it.
type Epoch struct {
	EpochInfo
	// Def is the finalized schema at this epoch.
	Def *schema.Def

	// tiers caches the unfiltered response per detail tier; filtered caches
	// (tier, type-filter) responses under string keys, for filters naming a
	// type of the epoch only. Both are lock-free on the hit path (atomic
	// pointer load / sync.Map read).
	tiers    [numTiers]renderSlot
	filtered sync.Map // "tier|type" -> *renderSlot
	instr    obs.Instr
}

// Rendered returns the epoch's response for one tier, rendering it on the
// first call and serving the cached bytes afterwards. The hit path performs
// one atomic load, takes no mutex and allocates nothing.
func (e *Epoch) Rendered(t Tier) (*Rendered, bool) {
	return e.tiers[t].get(func() *Rendered { return e.render(t, "") })
}

// RenderedFiltered is Rendered with an optional type-name filter; the empty
// filter is the unfiltered tier cache. Only filters naming a node or edge
// type of the epoch are cached, so the filtered cache holds at most one
// response per (tier, type) however many distinct names clients send; any
// other filter is rendered on every request.
func (e *Epoch) RenderedFiltered(t Tier, typeName string) (*Rendered, bool) {
	if typeName == "" {
		return e.Rendered(t)
	}
	key := t.String() + "|" + typeName
	v, ok := e.filtered.Load(key)
	if !ok {
		if !e.hasType(typeName) {
			return e.render(t, typeName), false
		}
		v, _ = e.filtered.LoadOrStore(key, &renderSlot{})
	}
	return v.(*renderSlot).get(func() *Rendered { return e.render(t, typeName) })
}

// hasType reports whether name is a node or edge type of the epoch.
func (e *Epoch) hasType(name string) bool {
	for i := range e.Def.Nodes {
		if e.Def.Nodes[i].Name == name {
			return true
		}
	}
	for i := range e.Def.Edges {
		if e.Def.Edges[i].Name == name {
			return true
		}
	}
	return false
}

// render materializes one response body and records the one-time cost.
func (e *Epoch) render(t Tier, typeFilter string) *Rendered {
	start := time.Now()
	body := renderTier(e, t, typeFilter)
	d := time.Since(start)
	e.instr.Add(obs.CtrServeRenders, 1)
	e.instr.Observe(obs.HistServeRenderMicros, uint64(d.Microseconds()))
	return &Rendered{Body: body, RenderTime: d, TokenEstimate: (len(body) + 3) / 4}
}
