package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pghive/internal/lsh"
	"pghive/internal/obs"
	"pghive/internal/pg"
)

// TestTelemetrySchemaUnchanged: a Registry+TraceWriter fan-out sees every
// batch, element, candidate and stage of the run, on both engine paths, and
// writes a valid Chrome trace. That the sink leaves the schema unchanged is
// TestConfigMatrix's execution-only check.
func TestTelemetrySchemaUnchanged(t *testing.T) {
	g := engineGraph(t, 300)
	for _, depth := range []int{1, 4} {
		reg := obs.NewRegistry()
		var traceBuf bytes.Buffer
		tw := obs.NewTraceWriter(&traceBuf)
		cfg := DefaultConfig()
		cfg.PipelineDepth = depth
		cfg.Telemetry = obs.Multi(reg, tw)
		observed := discoverSplit(g, cfg, 5, 7)
		if err := tw.Close(); err != nil {
			t.Fatalf("depth=%d: trace close: %v", depth, err)
		}

		if observed.Telemetry == nil {
			t.Fatalf("depth=%d: Result.Telemetry missing despite registry sink", depth)
		}
		snap := observed.Telemetry
		if got := snap.Counter(obs.CtrBatches); got != uint64(len(observed.Reports)) {
			t.Errorf("depth=%d: batches counter = %d, want %d", depth, got, len(observed.Reports))
		}
		var nodes, edges uint64
		for _, r := range observed.Reports {
			nodes += uint64(r.Nodes)
			edges += uint64(r.Edges)
		}
		if snap.Counter(obs.CtrNodes) != nodes || snap.Counter(obs.CtrEdges) != edges {
			t.Errorf("depth=%d: element counters %d/%d, want %d/%d", depth,
				snap.Counter(obs.CtrNodes), snap.Counter(obs.CtrEdges), nodes, edges)
		}
		created, merged := snap.Counter(obs.CtrTypesCreated), snap.Counter(obs.CtrTypesMerged)
		var clusters uint64
		for _, r := range observed.Reports {
			clusters += uint64(r.NodeClusters + r.EdgeClusters)
		}
		if created+merged != clusters {
			t.Errorf("depth=%d: types created+merged = %d, want one outcome per candidate (%d)", depth, created+merged, clusters)
		}
		wantTypes := uint64(len(observed.Schema.NodeTypes) + len(observed.Schema.EdgeTypes))
		if created != wantTypes {
			t.Errorf("depth=%d: types_created = %d, want %d (one per schema type)", depth, created, wantTypes)
		}
		for _, st := range []obs.Stage{obs.StageLoad, obs.StagePreprocess, obs.StageCluster, obs.StageExtract, obs.StagePostprocess} {
			agg := snap.Stage(st)
			wantCount := uint64(len(observed.Reports))
			if st == obs.StagePostprocess {
				wantCount = 1
			}
			if agg.Count != wantCount {
				t.Errorf("depth=%d: stage %v spans = %d, want %d", depth, st, agg.Count, wantCount)
			}
		}
		if snap.Hist(obs.HistNodeOccupancy).Count == 0 {
			t.Errorf("depth=%d: no node bucket-occupancy observations", depth)
		}
		if snap.Counter(obs.CtrPrefixDotsComputed) == 0 || snap.Counter(obs.CtrPrefixDotHits) == 0 {
			t.Errorf("depth=%d: factored prefix-dot cache counters missing: %+v", depth, snap.Counters)
		}
		if snap.Counter(obs.CtrEmbedTokensTrained) == 0 || snap.Counter(obs.CtrEmbedTokensReused) == 0 {
			t.Errorf("depth=%d: embedding session cache counters missing: %+v", depth, snap.Counters)
		}

		// The trace must be a valid Chrome trace: a JSON array of events
		// whose complete events match the span counts above.
		var events []map[string]any
		if err := json.Unmarshal(traceBuf.Bytes(), &events); err != nil {
			t.Fatalf("depth=%d: trace is not valid JSON: %v", depth, err)
		}
		complete := 0
		for _, e := range events {
			if e["ph"] == "X" {
				complete++
			}
		}
		// load+preprocess+cluster+extract per batch, one postprocess.
		if want := 4*len(observed.Reports) + 1; complete != want {
			t.Errorf("depth=%d: trace has %d complete events, want %d", depth, complete, want)
		}
	}
}

// TestTelemetryMinHashRecordSigCounters: both factored kernels, MinHash and
// ELSH, report their per-record signatures: one computed per record (per
// element shape), every further element a hit.
func TestTelemetryMinHashRecordSigCounters(t *testing.T) {
	g := engineGraph(t, 200)
	for _, m := range []Method{MethodMinHash, MethodELSH} {
		reg := obs.NewRegistry()
		cfg := DefaultConfig()
		cfg.Method = m
		cfg.Telemetry = reg
		res := discoverSplit(g, cfg, 3, 5)
		snap := res.Telemetry
		if snap == nil {
			t.Fatalf("%v: no telemetry snapshot", m)
		}
		computed, hits := snap.Counter(obs.CtrRecordSigsComputed), snap.Counter(obs.CtrRecordSigHits)
		if computed == 0 || hits == 0 {
			t.Fatalf("%v: record-signature counters = %d computed / %d hits, want both > 0", m, computed, hits)
		}
		var elements uint64
		for _, r := range res.Reports {
			elements += uint64(r.Nodes + r.Edges)
		}
		if computed+hits != elements {
			t.Errorf("%v: computed+hits = %d, want one per element (%d)", m, computed+hits, elements)
		}
	}
}

// TestTelemetryConcurrentScrape serves a live registry over HTTP while a
// depth-4 overlapped Discover emits into it, and hammers /metrics in both
// formats. Under -race this pins the scrape-during-run contract end to end.
func TestTelemetryConcurrentScrape(t *testing.T) {
	g := engineGraph(t, 600)
	reg := obs.NewRegistry()
	srv := httptest.NewServer(reg.Handler())
	defer srv.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	scrape := func(url string, check func([]byte) error) {
		defer wg.Done()
		for {
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Error(err)
				return
			}
			if err := check(body); err != nil {
				t.Errorf("scrape: %v\n%s", err, body)
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}
	wg.Add(2)
	go scrape(srv.URL+"/metrics", func(b []byte) error {
		var snap obs.Snapshot
		return json.Unmarshal(b, &snap)
	})
	go scrape(srv.URL+"/metrics?format=prometheus", func(b []byte) error {
		if len(b) == 0 || !strings.Contains(string(b), "pghive_uptime_seconds") {
			t.Errorf("prometheus scrape missing uptime gauge")
		}
		return nil
	})

	cfg := DefaultConfig()
	cfg.PipelineDepth = 4
	cfg.Telemetry = reg
	res := discoverSplit(g, cfg, 8, 3)
	close(done)
	wg.Wait()

	if res.Telemetry == nil || res.Telemetry.Counter(obs.CtrBatches) != uint64(len(res.Reports)) {
		t.Fatalf("final snapshot inconsistent: %+v", res.Telemetry)
	}
}

// TestReportsRecordWallWithoutSink: per-batch wall-clock and throughput are
// recorded even with telemetry disabled — the free half of the
// observability contract — and Result.Telemetry stays nil.
func TestReportsRecordWallWithoutSink(t *testing.T) {
	g := engineGraph(t, 200)
	for _, depth := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.PipelineDepth = depth
		res := discoverSplit(g, cfg, 4, 13)
		if res.Telemetry != nil {
			t.Errorf("depth=%d: Result.Telemetry must be nil without a registry", depth)
		}
		for i, r := range res.Reports {
			if r.Wall <= 0 {
				t.Errorf("depth=%d batch %d: Wall not recorded", depth, i)
			}
			if r.Wall < r.Preprocess+r.Cluster+r.Extract {
				t.Errorf("depth=%d batch %d: Wall %v < stage sum %v", depth, i, r.Wall, r.Total())
			}
			if r.Throughput() <= 0 {
				t.Errorf("depth=%d batch %d: Throughput not positive", depth, i)
			}
		}
	}
}

// TestCheckpointRoundtripsTimings: Load and Wall survive the checkpoint
// codec exactly.
func TestCheckpointRoundtripsTimings(t *testing.T) {
	cfg := DefaultConfig()
	p := NewPipeline(cfg)
	p.reports = []BatchReport{
		{
			Batch: 0, Nodes: 10, Edges: 4, NodeClusters: 2, EdgeClusters: 1,
			NodeParams: lsh.Params{Mu: 1.5, Bucket: 2, Tables: 3},
			Load:       5 * time.Millisecond, Preprocess: time.Millisecond,
			Cluster: 2 * time.Millisecond, Extract: time.Millisecond,
			Wall: 9 * time.Millisecond,
		},
		{Batch: 1, Nodes: 7, Load: 123 * time.Microsecond, Wall: 456 * time.Microsecond},
	}
	sec, err := p.section(2)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewPipeline(cfg)
	slots, err := restored.readSection(pg.NewWireReader(bytes.NewReader(sec)))
	if err != nil {
		t.Fatal(err)
	}
	if slots != 2 {
		t.Errorf("slots = %d, want 2", slots)
	}
	if !reflect.DeepEqual(restored.reports, p.reports) {
		t.Errorf("reports did not round-trip:\n got %+v\nwant %+v", restored.reports, p.reports)
	}
}

// TestFTTelemetryCounters: a fault-tolerant run with injected faults and
// checkpointing reports retries, quarantines and checkpoint volume.
func TestFTTelemetryCounters(t *testing.T) {
	g := engineGraph(t, 200)
	batches := g.SplitRandom(6, 21)
	reg := obs.NewRegistry()
	cfg := DefaultConfig()
	cfg.PipelineDepth = 1
	cfg.Telemetry = reg
	fault := pg.NewFaultSource(pg.AsErrSource(pg.NewSliceSource(batches...)),
		pg.FaultProfile{TransientRate: 0.3, CorruptRate: 0.2, Seed: 5})
	fault.SetSleep(func(time.Duration) {})
	res, err := Run(fault, cfg, RunOptions{Checkpoint: &statesCheckpointer{}})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Telemetry
	if snap == nil {
		t.Fatal("no telemetry snapshot")
	}
	transients, corrupted := fault.Stats()
	if got := snap.Counter(obs.CtrRetries); got != uint64(transients) {
		t.Errorf("retries = %d, want %d (every injected transient absorbed by the drain)", got, transients)
	}
	if got := snap.Counter(obs.CtrQuarantined); got != uint64(corrupted) || len(res.Skipped) != corrupted {
		t.Errorf("quarantined = %d (skipped %d), want %d", got, len(res.Skipped), corrupted)
	}
	if got := snap.Counter(obs.CtrCheckpoints); got != uint64(len(res.Reports)) {
		t.Errorf("checkpoints = %d, want one per extracted batch (%d)", got, len(res.Reports))
	}
	if snap.Counter(obs.CtrCheckpointBytes) == 0 {
		t.Error("checkpoint bytes not counted")
	}
	if snap.Stage(obs.StageCheckpoint).Count != uint64(len(res.Reports)) {
		t.Errorf("checkpoint spans = %d, want %d", snap.Stage(obs.StageCheckpoint).Count, len(res.Reports))
	}
}

// spanRecorder keeps every span it is handed.
type spanRecorder struct {
	mu    sync.Mutex
	spans []obs.Span
}

func (r *spanRecorder) Span(s obs.Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
}
func (*spanRecorder) Add(obs.Counter, uint64)  {}
func (*spanRecorder) Observe(obs.Hist, uint64) {}

// TestSpansCarryBatchSequence: under quarantine, at depths 1 and 4, every
// span of a batch carries its sequence number — one load, preprocess,
// cluster and checkpoint span each, and an extract span covering the
// batch's elements unless the batch was withheld — and every checkpoint
// span the batch's depth slot.
func TestSpansCarryBatchSequence(t *testing.T) {
	stream := append(driftStream(4, 3), driftStream(1, 0)...)
	for _, depth := range []int{1, 4} {
		rec := &spanRecorder{}
		cfg := DefaultConfig()
		cfg.PipelineDepth, cfg.DriftPolicy, cfg.EpochInterval, cfg.Telemetry = depth, DriftQuarantine, 2, rec
		res, err := Run(pg.AsErrSource(pg.NewSliceSource(stream...)), cfg, RunOptions{Checkpoint: &statesCheckpointer{}})
		if err != nil || len(res.Skipped) != 3 {
			t.Fatalf("depth=%d: skipped %v, err %v; want the 3 drifted batches", depth, res.Skipped, err)
		}
		want := map[string]int{}
		for seq, b := range stream {
			for _, st := range []obs.Stage{obs.StageLoad, obs.StagePreprocess, obs.StageCluster, obs.StageCheckpoint} {
				want[fmt.Sprintf("%v batch %d slot %d", st, seq, seq%depth)]++
			}
			if !slices.ContainsFunc(res.Skipped, func(s SkipReport) bool { return s.Seq == seq }) {
				want[fmt.Sprintf("%v batch %d elements %d", obs.StageExtract, seq, b.Len())]++
			}
		}
		got := map[string]int{}
		for _, s := range rec.spans {
			switch s.Stage {
			case obs.StageLoad, obs.StagePreprocess, obs.StageCluster, obs.StageCheckpoint:
				got[fmt.Sprintf("%v batch %d slot %d", s.Stage, s.Batch, s.Slot)]++
			case obs.StageExtract:
				got[fmt.Sprintf("%v batch %d elements %d", s.Stage, s.Batch, s.Elements)]++
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("depth=%d: spans\n%v\nwant\n%v", depth, got, want)
		}
	}
}
