// Package pghive is the public API of PG-HIVE, a hybrid incremental schema
// discovery library for property graphs (Sideri et al., EDBT 2026).
//
// PG-HIVE infers a property graph's schema — node types, edge types,
// property data types, MANDATORY/OPTIONAL constraints, and edge
// cardinalities — without assuming labels are present, complete or
// consistent. Elements are embedded into hybrid vectors (a Word2Vec label
// embedding next to binary property indicators), clustered with
// Locality-Sensitive Hashing (Euclidean LSH or MinHash, with adaptive
// parameter selection), and merged into types by label and by
// property-set Jaccard similarity. Batches can be processed incrementally:
// the schema only ever grows (monotone merging).
//
// Quickstart:
//
//	g := pghive.NewGraph()
//	alice := g.AddNode([]string{"Person"}, pghive.Properties{
//		"name": pghive.Str("Alice"),
//	})
//	bob := g.AddNode([]string{"Person"}, pghive.Properties{
//		"name": pghive.Str("Bob"),
//	})
//	g.AddEdge([]string{"KNOWS"}, alice, bob, nil)
//
//	result := pghive.Discover(g, pghive.DefaultConfig())
//	pghive.WritePGSchema(os.Stdout, result.Def, "MyGraph", pghive.Strict)
package pghive

import (
	"io"

	"pghive/internal/core"
	"pghive/internal/infer"
	"pghive/internal/lsh"
	"pghive/internal/obs"
	"pghive/internal/pg"
	"pghive/internal/query"
	"pghive/internal/schema"
	"pghive/internal/serialize"
	"pghive/internal/stream"
	"pghive/internal/validate"
)

// Graph model re-exports: the in-memory property graph and its value
// types.
type (
	// Graph is an in-memory property graph.
	Graph = pg.Graph
	// ID identifies a node or edge.
	ID = pg.ID
	// Node is a property-graph node.
	Node = pg.Node
	// Edge is a property-graph edge.
	Edge = pg.Edge
	// Properties is the key-value map on nodes and edges.
	Properties = pg.Properties
	// Value is a typed property value.
	Value = pg.Value
	// Kind is a property value's dynamic type.
	Kind = pg.Kind
	// Batch is one unit of incremental input.
	Batch = pg.Batch
	// NodeRecord and EdgeRecord are the row shapes the pipeline consumes
	// (edge records carry resolved endpoint labels).
	NodeRecord = pg.NodeRecord
	EdgeRecord = pg.EdgeRecord
	// Source streams batches into the pipeline.
	Source = pg.Source
)

// Value kinds.
const (
	KindNull      = pg.KindNull
	KindInt       = pg.KindInt
	KindFloat     = pg.KindFloat
	KindBool      = pg.KindBool
	KindDate      = pg.KindDate
	KindTimestamp = pg.KindTimestamp
	KindString    = pg.KindString
)

// NewGraph returns an empty property graph.
func NewGraph() *Graph { return pg.NewGraph() }

// Value constructors.
var (
	// Int builds an INT value.
	Int = pg.Int
	// Float builds a DOUBLE value.
	Float = pg.Float
	// Bool builds a BOOLEAN value.
	Bool = pg.Bool
	// Str builds a STRING value.
	Str = pg.Str
	// Date builds a DATE value.
	Date = pg.Date
	// Timestamp builds a TIMESTAMP value.
	Timestamp = pg.Timestamp
	// ParseValue infers a value from text (int → float → bool → date →
	// string priority).
	ParseValue = pg.ParseValue
)

// Discovery configuration and results.
type (
	// Config controls a discovery run; see DefaultConfig.
	Config = core.Config
	// Method selects the LSH family.
	Method = core.Method
	// Result is a completed discovery run.
	Result = core.Result
	// Pipeline is an incremental discovery session.
	Pipeline = core.Pipeline
	// BatchReport describes one processed batch.
	BatchReport = core.BatchReport
	// LSHParams are manual LSH parameters (bucket length and table count).
	LSHParams = lsh.Params
)

// Clustering methods.
const (
	// MethodELSH clusters hybrid vectors with Euclidean LSH (the default).
	MethodELSH = core.MethodELSH
	// MethodMinHash clusters token sets with MinHash.
	MethodMinHash = core.MethodMinHash
)

// DefaultPipelineDepth is the execution engine's default batch window; see
// Config.PipelineDepth.
const DefaultPipelineDepth = core.DefaultPipelineDepth

// DefaultConfig returns the paper's configuration: ELSH with adaptive
// parameters, merge threshold θ = 0.9, and 10 %/≥1000 data-type sampling.
// It is the zero Config with Seed 1.
func DefaultConfig() Config { return core.DefaultConfig() }

// Discover infers the schema of a fully loaded graph in one batch. Like
// every entry point it honours Config.Shards: N > 1 hash-partitions the
// elements by ID across N concurrent pipelines and merges their schemas,
// deterministically for a fixed (Seed, Shards).
func Discover(g *Graph, cfg Config) *Result {
	return core.Discover(pg.NewSliceSource(g.Snapshot()), cfg)
}

// DiscoverStream drains a batch source through the incremental pipeline
// and finalizes the schema (Algorithm 1 of the paper).
func DiscoverStream(src Source, cfg Config) *Result { return core.Discover(src, cfg) }

// Run is discovery over a fallible source, the one entry point the others
// wrap: transient faults are retried, poisoned batches are quarantined into
// Result.Skipped, opts.Checkpoint saves the run state after every batch and
// opts.Resume continues from such a state over a replay of the same stream,
// finalizing byte-identically to an uninterrupted run.
func Run(src ErrSource, cfg Config, opts RunOptions) (*Result, error) {
	return core.Run(src, cfg, opts)
}

// NewPipeline starts an incremental discovery session; feed it batches
// with ProcessBatch and call Finalize for the schema definition.
func NewPipeline(cfg Config) *Pipeline { return core.NewPipeline(cfg) }

// NewSliceSource wraps pre-built batches as a Source.
func NewSliceSource(batches ...*Batch) Source { return pg.NewSliceSource(batches...) }

// Fault-tolerant ingestion: fallible sources, fault injection, retry with
// backoff, quarantine, and per-batch checkpointing.
type (
	// ErrSource streams batches from a fallible origin: Next may fail
	// transiently (retry), with a poisoned batch (quarantine), or
	// permanently (resume from a checkpoint).
	ErrSource = pg.ErrSource
	// TransientError marks a retryable failure.
	TransientError = pg.TransientError
	// CorruptBatchError marks a poisoned batch the pipeline quarantines.
	CorruptBatchError = pg.CorruptBatchError
	// ParseError locates a malformed CSV/JSONL input line.
	ParseError = pg.ParseError
	// FaultProfile configures seeded fault injection for testing.
	FaultProfile = pg.FaultProfile
	// FaultSource wraps a source with deterministic fault injection.
	FaultSource = pg.FaultSource
	// RetryPolicy configures exponential backoff with jitter.
	RetryPolicy = pg.RetryPolicy
	// RetrySource absorbs transient faults with backoff.
	RetrySource = pg.RetrySource
	// RetryExhaustedError reports a slot that kept failing transiently.
	RetryExhaustedError = pg.RetryExhaustedError
	// RunOptions sets where Run checkpoints and what it resumes from (one
	// checkpoint format, with a section per shard when Config.Shards > 1).
	RunOptions = core.RunOptions
	// SkipReport records one quarantined batch.
	SkipReport = core.SkipReport
	// Checkpointer persists per-batch pipeline checkpoints.
	Checkpointer = core.Checkpointer
	// FileCheckpointer writes checkpoints atomically to one file.
	FileCheckpointer = core.FileCheckpointer
)

// ErrPermanentFault is the permanent failure a FaultSource injects.
var ErrPermanentFault = pg.ErrPermanentFault

// AsErrSource adapts an infallible Source to ErrSource.
func AsErrSource(src Source) ErrSource { return pg.AsErrSource(src) }

// NewFaultSource wraps a source with seeded, deterministic fault injection
// (transient errors, latency, truncation/corruption, permanent failure).
func NewFaultSource(src ErrSource, p FaultProfile) *FaultSource { return pg.NewFaultSource(src, p) }

// NewRetrySource absorbs transient faults with exponential backoff and
// jitter, bounded by a per-batch attempt budget.
func NewRetrySource(src ErrSource, p RetryPolicy) *RetrySource { return pg.NewRetrySource(src, p) }

// Streaming drift observability: with Config.DriftPolicy set, every batch
// is validated against the schema of the current epoch before it merges,
// classified violations flow out as drift counters and JSONL records, and
// epoch boundaries emit structured schema diffs.
type (
	// DriftPolicy selects what a violating batch does to the schema:
	// evolve (merge as usual), alert (merge but record), quarantine
	// (withhold from the merge, into Result.Skipped).
	DriftPolicy = core.DriftPolicy
	// DriftLog is a concurrency-safe JSONL sink for drift records.
	DriftLog = core.DriftLog
	// DriftSummary aggregates a run's drift activity (Result.Drift).
	DriftSummary = core.DriftSummary
)

// Drift policies.
const (
	DriftOff        = core.DriftOff
	DriftEvolve     = core.DriftEvolve
	DriftAlert      = core.DriftAlert
	DriftQuarantine = core.DriftQuarantine
)

// DefaultEpochInterval is the epoch window length used when
// Config.EpochInterval is 0. It counts every batch through the epoch
// clock's gate, quarantined ones included, not only extracted batches.
const DefaultEpochInterval = core.DefaultEpochInterval

// ParseDriftPolicy parses a -drift-policy flag value ("" or "off", "evolve",
// "alert", "quarantine").
func ParseDriftPolicy(s string) (DriftPolicy, error) { return core.ParseDriftPolicy(s) }

// NewDriftLog wraps a writer as a JSONL drift-record sink (nil disables).
func NewDriftLog(w io.Writer) *DriftLog { return core.NewDriftLog(w) }

// Telemetry: zero-dependency observability for discovery runs. Attach a
// sink via Config.Telemetry; with a nil sink every instrumentation point is
// a no-op (0 allocations, pinned by benchmark).
type (
	// TelemetrySink receives execution events: per-stage spans, counters
	// and histograms. Implementations must be safe for concurrent use.
	TelemetrySink = obs.Sink
	// TelemetryRegistry aggregates events into scrapeable metrics
	// (JSON or Prometheus text via its HTTP handler, or Result.Telemetry).
	TelemetryRegistry = obs.Registry
	// TelemetrySnapshot is a consistent point-in-time metrics view.
	TelemetrySnapshot = obs.Snapshot
	// TraceWriter streams spans as Chrome-trace-format JSON, loadable in
	// chrome://tracing or Perfetto.
	TraceWriter = obs.TraceWriter
)

// Commonly consulted telemetry counters, re-exported for use with
// TelemetrySnapshot.Counter (the full set lives in internal/obs).
const (
	CtrBatches            = obs.CtrBatches
	CtrNodes              = obs.CtrNodes
	CtrEdges              = obs.CtrEdges
	CtrRetries            = obs.CtrRetries
	CtrQuarantined        = obs.CtrQuarantined
	CtrCheckpoints        = obs.CtrCheckpoints
	CtrCheckpointBytes    = obs.CtrCheckpointBytes
	CtrEmbedTokensReused  = obs.CtrEmbedTokensReused
	CtrEmbedTokensTrained = obs.CtrEmbedTokensTrained
	CtrTypesCreated       = obs.CtrTypesCreated
	CtrTypesMerged        = obs.CtrTypesMerged
)

// NewTelemetryRegistry returns an empty metrics registry.
func NewTelemetryRegistry() *TelemetryRegistry { return obs.NewRegistry() }

// NewTraceWriter streams spans to w in Chrome trace format; call Close when
// the run ends to terminate the JSON array (an unterminated stream is still
// loadable).
func NewTraceWriter(w io.Writer) *TraceWriter { return obs.NewTraceWriter(w) }

// TelemetryMulti fans events out to several sinks (nils are dropped; an
// empty result is nil, i.e. telemetry disabled).
func TelemetryMulti(sinks ...TelemetrySink) TelemetrySink { return obs.Multi(sinks...) }

// ServeTelemetry exposes the registry at /metrics on addr (port 0 picks a
// free port) and returns the bound address plus a closer for the listener.
func ServeTelemetry(addr string, r *TelemetryRegistry) (string, io.Closer, error) {
	return obs.Serve(addr, r)
}

// Collector buffers live element insertions and flushes them into an
// incremental pipeline in fixed-size batches (thread-safe).
type Collector = stream.Collector

// NewCollector wraps a pipeline for streaming ingestion.
func NewCollector(pipe *Pipeline, batchSize int) *Collector {
	return stream.NewCollector(pipe, batchSize)
}

// Discovered schema model.
type (
	// SchemaDef is a finalized schema definition.
	SchemaDef = schema.Def
	// NodeTypeDef is a finalized node type.
	NodeTypeDef = schema.NodeTypeDef
	// EdgeTypeDef is a finalized edge type.
	EdgeTypeDef = schema.EdgeTypeDef
	// PropertyDef is a finalized property with data type and constraint.
	PropertyDef = schema.PropertyDef
	// Cardinality is an inferred edge cardinality (0:1, N:1, 0:N, M:N).
	Cardinality = schema.Cardinality
	// Schema is the raw evolving schema with accumulated evidence.
	Schema = schema.Schema
	// PropStat is the accumulated per-property evidence of a raw type.
	PropStat = schema.PropStat
)

// Cardinality values (the paper's mapping from max in/out degrees).
const (
	CardUnknown = schema.CardUnknown
	CardZeroOne = schema.CardZeroOne
	CardNOne    = schema.CardNOne
	CardZeroN   = schema.CardZeroN
	CardMN      = schema.CardMN
)

// SamplingError returns the paper's per-property data-type sampling error
// for a property statistic (Figure 8).
var SamplingError = infer.SamplingError

// SchemaChange is one evolution step between two schema snapshots.
type SchemaChange = schema.Change

// DiffSchemas compares two finalized schema snapshots and returns the
// changes from old to new (types/properties added, constraints relaxed or
// tightened, data types widened, cardinalities and keys changed). Under
// incremental discovery the result contains no removals.
func DiffSchemas(old, new *SchemaDef) []SchemaChange { return schema.Diff(old, new) }

// Serialization.

// Mode selects the PG-Schema constraint level.
type Mode = serialize.Mode

// PG-Schema modes.
const (
	// Strict demands full structure: data types and mandatory markers.
	Strict = serialize.Strict
	// Loose allows deviation: open types, all properties optional.
	Loose = serialize.Loose
)

// WritePGSchema renders the schema as PG-Schema DDL.
func WritePGSchema(w io.Writer, def *SchemaDef, name string, mode Mode) error {
	return serialize.WritePGSchema(w, def, name, mode)
}

// WriteXSD renders the schema as an XML Schema document.
func WriteXSD(w io.Writer, def *SchemaDef) error { return serialize.WriteXSD(w, def) }

// WriteSchemaJSON renders the schema as indented JSON.
func WriteSchemaJSON(w io.Writer, def *SchemaDef) error { return serialize.WriteJSON(w, def) }

// WriteDOT renders the schema graph in GraphViz DOT.
func WriteDOT(w io.Writer, def *SchemaDef) error { return serialize.WriteDOT(w, def) }

// Querying: a compact Cypher-style language over the in-memory store.
type (
	// QueryResult holds result columns and rows.
	QueryResult = query.Result
	// QueryCell is one result cell (scalar or entity reference).
	QueryCell = query.Cell
)

// RunQuery executes a Cypher-style query against the graph, e.g.
//
//	MATCH (p:Person)-[w:WORKS_AT]->(o:Org) WHERE p.age > 30
//	RETURN p.name, o.name ORDER BY p.name LIMIT 10
func RunQuery(g *Graph, q string) (*QueryResult, error) { return query.Run(g, q) }

// Validation: check a graph against a discovered schema.
type (
	// ValidationReport lists conformance violations.
	ValidationReport = validate.Report
	// Violation is one conformance failure.
	Violation = validate.Violation
)

// ValidateGraph checks g against a schema definition in the given mode:
// Strict enforces full structure (mandatory properties, data types, enums,
// keys, cardinality bounds); Loose only requires known labels and types.
func ValidateGraph(g *Graph, def *SchemaDef, mode Mode) *ValidationReport {
	return validate.Validate(g, def, validate.Options{Mode: mode})
}

// Graph I/O.

// ReadCSV loads a graph from Neo4j-style node and edge CSV streams
// (headers `_id,_labels,...` and `_id,_labels,_src,_dst,...`). The edge
// reader may be nil.
func ReadCSV(nodes, edges io.Reader) (*Graph, error) { return pg.ReadCSV(nodes, edges) }

// WriteNodesCSV / WriteEdgesCSV export a graph to the same CSV format.
var (
	WriteNodesCSV = pg.WriteNodesCSV
	WriteEdgesCSV = pg.WriteEdgesCSV
)

// ReadJSONL loads a graph from JSON Lines (one element per line).
func ReadJSONL(r io.Reader) (*Graph, error) { return pg.ReadJSONL(r) }

// WriteJSONL exports a graph as JSON Lines.
func WriteJSONL(w io.Writer, g *Graph) error { return pg.WriteJSONL(w, g) }

// ReadGraphBinary loads a graph from the compact binary snapshot format.
func ReadGraphBinary(r io.Reader) (*Graph, error) { return pg.ReadBinary(r) }

// WriteGraphBinary exports a graph in the compact binary snapshot format —
// several times smaller and faster to load than JSONL for large graphs.
func WriteGraphBinary(w io.Writer, g *Graph) error { return pg.WriteBinary(w, g) }
