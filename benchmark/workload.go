package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"pghive/internal/core"
	"pghive/internal/datagen"
	"pghive/internal/obs"
	"pghive/internal/pg"
	"pghive/internal/serialize"
	"pghive/internal/serve"
)

// workload is one input stream plus the engine configuration it runs
// under. Batch workloads call core.Discover and serialize the result;
// serve workloads feed serve.Server.Ingest while an open-loop reader
// queries the service.
type workload struct {
	name, why string
	// generate builds the stream for the benchmark's seed; scale shrinks it
	// (1 is the benchmark's size).
	generate func(seed int64, scale float64) []*pg.Batch
	// cfg is the measured configuration. Its Seed stays 1: the benchmark's
	// seed only shapes the input stream.
	cfg core.Config
	// reference computes the output every rep must reproduce byte for
	// byte.
	reference func(stream) ([]byte, error)
	serve     bool
	// epochLag is set when an epoch's Seq names the source batch that
	// closed it (single-pipeline publication), so lag can be measured.
	epochLag bool
}

// readInterval is the open-loop reader's schedule: 1,000 requests/s.
const readInterval = time.Millisecond

func serialConfig() core.Config {
	c := core.DefaultConfig()
	c.PipelineDepth = 1
	c.Parallelism = 1
	return c
}

func nearThetaConfig() core.Config {
	c := core.DefaultConfig()
	c.EpochInterval = 4
	return c
}

func supernodesConfig() core.Config {
	c := core.DefaultConfig()
	c.Shards = 2
	c.Method = core.MethodMinHash
	c.MemBudgetBytes = 64 << 20
	c.EpochInterval = 8
	return c
}

// workloads are the benchmark's inputs. The two LDBC workloads run the same
// stream with and without the overlapped engine, and each is the other's
// reference, so every rep also checks engine identity.
var workloads = []*workload{
	{
		name:      "ldbc-overlapped",
		why:       "LDBC 100k nodes in 16 large batches at depth 4: time goes to ELSH clustering and serialized extract, where engine overlap and parallel observation show",
		generate:  ldbcStream,
		cfg:       core.DefaultConfig(),
		reference: referenceRun(serialConfig()),
	},
	{
		name:      "ldbc-serial",
		why:       "the same LDBC stream single-threaded at depth 1: the baseline that bypasses every overlap and worker mechanism, with decode on the critical path",
		generate:  ldbcStream,
		cfg:       serialConfig(),
		reference: referenceRun(core.DefaultConfig()),
	},
	{
		name:      "near-theta-serve",
		why:       "720 small batches of near-theta types served with epochs every 4 batches under 1,000 reads/s: per-batch fixed costs, Algorithm 2 merge scans, epoch publication",
		generate:  scenarioStream("near-theta", 60),
		cfg:       nearThetaConfig(),
		reference: referenceRun(nearThetaConfig()),
		serve:     true,
		epochLag:  true,
	},
	{
		name:      "supernodes-serve-sharded",
		why:       "hub-skewed ICIJ edges served by 2 MinHash shards with sketched evidence under 1,000 reads/s: shard routing, record memo, fleet checkpoints",
		generate:  scenarioStream("supernodes", 10),
		cfg:       supernodesConfig(),
		reference: referenceRun(supernodesConfig()),
		serve:     true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Each workload's dataset is generated from a fixed seed; the benchmark's
// seed decides how it is cut into batches or ordered within them, as the
// paper's incremental evaluation splits one dataset at random. Regenerating
// the data per seed changes the work itself: on LDBC the distinct-value
// counts move map sizes across power-of-two steps (retained heap 12.4-18.6
// MB over seeds 1-10), on near-theta the number of discovered types (the
// reference schema is 204-220 KB over seeds 1-3).
const datasetSeed = 1

// ldbcStream splits the LDBC graph into 16 random batches.
func ldbcStream(seed int64, scale float64) []*pg.Batch {
	ds := datagen.Generate(datagen.ProfileByName("LDBC"), datagen.Options{
		Nodes: int(math.Round(100_000 * scale)), Seed: datasetSeed,
	})
	return ds.Graph.SplitRandom(16, seed)
}

// scenarioStream plays a scenario's timeline repeat times (scale keeps
// that share of the batches) and shuffles the elements within each batch;
// batch order stays, since the scenario's phases depend on it.
func scenarioStream(name string, repeat int) func(int64, float64) []*pg.Batch {
	return func(seed int64, scale float64) []*pg.Batch {
		sc := datagen.ScenarioByName(name)
		n := max(1, int(math.Round(float64(repeat*sc.TotalBatches())*scale)))
		st := sc.StreamN(datasetSeed, repeat)
		rng := rand.New(rand.NewSource(seed))
		var out []*pg.Batch
		for len(out) < n {
			b := st.Next()
			if b == nil {
				break
			}
			rng.Shuffle(len(b.Nodes), func(i, j int) { b.Nodes[i], b.Nodes[j] = b.Nodes[j], b.Nodes[i] })
			rng.Shuffle(len(b.Edges), func(i, j int) { b.Edges[i], b.Edges[j] = b.Edges[j], b.Edges[i] })
			out = append(out, b)
		}
		return out
	}
}

// prepared is a workload's set-up: the encoded stream and the reference
// output.
type prepared struct {
	st  stream
	ref []byte
}

// prepare generates the stream from seed, encodes it once, and computes
// the reference output.
func (w *workload) prepare(seed int64, scale float64) (prepared, error) {
	st, err := encodeStream(w.generate(seed, scale))
	if err != nil {
		return prepared{}, err
	}
	ref, err := w.reference(st)
	if err != nil {
		return prepared{}, fmt.Errorf("reference run: %w", err)
	}
	return prepared{st: st, ref: ref}, nil
}

// referenceRun is a reference that runs core.DiscoverSharded under cfg
// over the decoded stream and serializes the schema.
func referenceRun(cfg core.Config) func(stream) ([]byte, error) {
	return func(st stream) ([]byte, error) {
		src := newWireSource(st, nil, noParent)
		res := core.DiscoverSharded(infallible{src}, cfg)
		if src.err != nil {
			return nil, src.err
		}
		var buf bytes.Buffer
		if err := serialize.WriteJSON(&buf, res.Def); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
}

// repResult is what one rep measured.
type repResult struct {
	// wall runs from the first call into the program to the final output:
	// the JSON bytes for batch workloads, the final epoch's full body as a
	// client reads it for serve workloads.
	wall     time.Duration
	output   []byte
	heapMB   float64
	batches  int // attempted
	failed   int // batches that never reached the program, plus failed reads
	res      *core.Result
	srv      *serve.Server
	reader   *reader
	epochLag []float64 // ms, one per epoch the reader saw
	jsonDur  time.Duration
}

// rep runs the workload once over the encoded stream. With sink set, the
// run carries telemetry into reg and sink and records the benchmark's own
// spans; otherwise telemetry stays off.
func (w *workload) rep(st stream, reg *obs.Registry, sink *benchSink) (repResult, error) {
	cfg := w.cfg
	if sink != nil {
		cfg.Telemetry = obs.Multi(reg, sink)
	}
	runtime.GC()
	base := heapAlloc()
	var r repResult
	var err error
	if w.serve {
		r, err = serveRep(st, cfg, sink, w.epochLag)
	} else {
		r, err = batchRep(st, cfg, sink)
	}
	if err != nil {
		return r, err
	}
	runtime.GC()
	r.heapMB = float64(int64(heapAlloc())-int64(base)) / (1 << 20)
	runtime.KeepAlive(r.res)
	runtime.KeepAlive(r.srv)
	return r, nil
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func batchRep(st stream, cfg core.Config, sink *benchSink) (repResult, error) {
	call := sink.enter()
	src := newWireSource(st, sink, call)
	start := time.Now()
	res := core.Discover(infallible{src}, cfg)
	discovered := time.Now()
	sink.benchSpan(call, noParent, "bench.discover", "core", tidCall, start, discovered, st.elements)
	var buf bytes.Buffer
	if err := serialize.WriteJSON(&buf, res.Def); err != nil {
		return repResult{}, fmt.Errorf("serialize: %w", err)
	}
	end := time.Now()
	sink.benchSpan(0, noParent, "bench.json", "serialize", tidCall, discovered, end, buf.Len())
	return repResult{
		wall: end.Sub(start), output: buf.Bytes(), res: res,
		batches: st.batches, failed: src.failed(), jsonDur: end.Sub(discovered),
	}, nil
}

func serveRep(st stream, cfg core.Config, sink *benchSink, epochLag bool) (repResult, error) {
	call := sink.enter()
	start := time.Now()
	srv := serve.NewServer(nil)
	h := srv.Handler()
	rd := newReader(h, readInterval, sink)
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		rd.run(stop)
	}()
	src := newWireSource(st, sink, call)
	res, ingestErr := srv.Ingest(src, serve.IngestOptions{Config: cfg})
	ingested := time.Now()
	sink.benchSpan(call, noParent, "bench.ingest", "serve", tidCall, start, ingested, st.elements)

	// The final output: the final epoch's full body, read as a client would.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/schema?detail=full", nil))
	end := time.Now()
	sink.benchSpan(0, noParent, "bench.read", "serve", tidCall, ingested, end, rec.Body.Len())
	close(stop)
	<-stopped

	r := repResult{
		wall: end.Sub(start), output: rec.Body.Bytes(), res: res, srv: srv, reader: rd,
		batches: st.batches, failed: src.failed() + rd.failed,
	}
	if cur := srv.Current(); ingestErr != nil || rec.Code != http.StatusOK || !cur.Final ||
		rec.Header().Get("X-PGHive-Epoch") != strconv.Itoa(cur.ID) {
		// Not the final epoch's schema: fails the byte-identity gate.
		r.output = nil
		return r, nil
	}
	if epochLag {
		for _, e := range srv.Epochs() {
			seen, ok := rd.firstSeen[e.ID]
			if ok && e.Seq >= 0 && e.Seq < len(src.handed) {
				r.epochLag = append(r.epochLag, float64(seen.Sub(src.handed[e.Seq]).Nanoseconds())/1e6)
			}
		}
	}
	if sink != nil {
		// Serialization runs inside the service's render; time the same
		// call once more so the serialize layer has a number of its own.
		var buf bytes.Buffer
		t0 := time.Now()
		if err := serialize.WriteJSON(&buf, res.Def); err != nil {
			return r, fmt.Errorf("serialize: %w", err)
		}
		r.jsonDur = time.Since(t0)
		sink.benchSpan(0, noParent, "bench.json", "serialize", tidCall, t0, t0.Add(r.jsonDur), buf.Len())
	}
	return r, nil
}
