// Observed discovery: a streaming run wired up with the full telemetry
// stack — a Registry served live at /metrics (JSON and Prometheus text),
// a Chrome-trace file for chrome://tracing or Perfetto, and the aggregate
// snapshot attached to the Result.
//
//	go run ./examples/observed
//	curl http://localhost:9190/metrics                      # mid-run, JSON
//	curl http://localhost:9190/metrics?format=prometheus    # text exposition
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"pghive"
	"pghive/internal/datagen"
)

func main() {
	ds := datagen.Generate(datagen.LDBC(), datagen.Options{Nodes: 5000, Seed: 7})
	fmt.Printf("Generated LDBC-style graph: %d nodes, %d edges\n",
		ds.Graph.NumNodes(), ds.Graph.NumEdges())

	// The registry aggregates every event; ServeTelemetry exposes it live
	// while discovery runs (addr "" or ":0" picks a free port).
	reg := pghive.NewTelemetryRegistry()
	addr, closer, err := pghive.ServeTelemetry("localhost:9190", reg)
	if err != nil {
		log.Fatal(err)
	}
	defer closer.Close()
	fmt.Printf("Live metrics at http://%s/metrics (scrape while it runs)\n", addr)

	// The trace writer streams one Chrome-trace event per pipeline stage;
	// open trace.json in chrome://tracing to see the overlapped batches
	// interleave across the depth slots.
	f, err := os.Create("trace.json")
	if err != nil {
		log.Fatal(err)
	}
	tw := pghive.NewTraceWriter(f)

	cfg := pghive.DefaultConfig()
	cfg.PipelineDepth = 4
	cfg.Telemetry = pghive.TelemetryMulti(reg, tw)

	src := pghive.NewSliceSource(ds.Graph.SplitRandom(12, 7)...)
	result := pghive.DiscoverStream(src, cfg)
	if err := tw.Close(); err != nil {
		log.Fatal(err)
	}
	f.Close()

	fmt.Printf("\nDiscovered %d node types, %d edge types in %v\n",
		len(result.Def.Nodes), len(result.Def.Edges), result.Discovery)
	for _, r := range result.Reports {
		fmt.Printf("  batch %2d: %4d+%-4d elements in %-10v %8.0f elem/s  queue wait %v\n",
			r.Batch, r.Nodes, r.Edges, r.Total().Round(time.Microsecond), r.Throughput(),
			(r.Wall - r.Load - r.Total()).Round(time.Microsecond))
	}

	// Result.Telemetry is the final aggregate snapshot — the same data the
	// endpoint serves, without needing a scrape.
	snap := result.Telemetry
	fmt.Printf("\nFinal snapshot: %d batches, %d/%d embedding tokens reused/trained, %d type merges\n",
		snap.Counter(pghive.CtrBatches),
		snap.Counter(pghive.CtrEmbedTokensReused), snap.Counter(pghive.CtrEmbedTokensTrained),
		snap.Counter(pghive.CtrTypesMerged))
	snap.WriteText(os.Stdout)
	fmt.Println("\nWrote trace.json — load it in chrome://tracing or https://ui.perfetto.dev")
}
