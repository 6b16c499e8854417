package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pghive/internal/core"
	"pghive/internal/pg"
	"pghive/internal/schema"
	"pghive/internal/serialize"
)

// stream builds a deterministic batched workload: Person/Org nodes joined by
// WORKS_AT edges, with a schema that keeps growing (a new property every few
// batches) so consecutive epochs actually differ.
func stream(batches int) []*pg.Batch {
	var out []*pg.Batch
	id := pg.ID(1)
	next := func() pg.ID { id++; return id - 1 }
	for i := 0; i < batches; i++ {
		b := &pg.Batch{}
		o := pg.NodeRecord{ID: next(), Labels: []string{"Org"}, Props: pg.Properties{"name": pg.Str("o")}}
		b.Nodes = append(b.Nodes, o)
		for j := 0; j < 10; j++ {
			props := pg.Properties{"name": pg.Str("p"), "age": pg.Int(int64(20 + j))}
			// Schema growth: later batches introduce new properties so the
			// published epochs differ and /epochs carries real diffs.
			if i >= 4 {
				props["email"] = pg.Str("p@example.com")
			}
			if i >= 8 {
				props["city"] = pg.Str("x")
			}
			p := pg.NodeRecord{ID: next(), Labels: []string{"Person"}, Props: props}
			b.Nodes = append(b.Nodes, p)
			b.Edges = append(b.Edges, pg.EdgeRecord{
				ID: next(), Labels: []string{"WORKS_AT"}, Src: p.ID, Dst: o.ID,
				SrcLabels: []string{"Person"}, DstLabels: []string{"Org"},
				Props: pg.Properties{"since": pg.Int(2020)},
			})
		}
		out = append(out, b)
	}
	return out
}

func src(batches []*pg.Batch) pg.ErrSource {
	return pg.AsErrSource(pg.NewSliceSource(batches...))
}

// TestServeFullByteIdentical is the acceptance criterion: after ingest
// completes, the served detail=full response is byte-identical to the batch
// Discover output over the same input.
func TestServeFullByteIdentical(t *testing.T) {
	batches := stream(12)
	cfg := core.Config{EpochInterval: 4}

	want := core.Discover(pg.NewSliceSource(batches...), cfg)
	var wantJSON bytes.Buffer
	if err := serialize.WriteJSON(&wantJSON, want.Def); err != nil {
		t.Fatal(err)
	}

	s := NewServer(nil)
	res, err := s.Ingest(src(batches), IngestOptions{Config: cfg})
	if err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if len(res.Reports) != 12 {
		t.Fatalf("reports = %d, want 12", len(res.Reports))
	}
	e := s.Current()
	if !e.Final {
		t.Fatalf("current epoch not final after ingest: %+v", e.ID)
	}
	resp, hit := e.Rendered(TierFull)
	if hit {
		t.Fatal("first render must be a miss")
	}
	if !bytes.Equal(resp.Body, wantJSON.Bytes()) {
		t.Fatalf("served full schema differs from batch Discover output\nserved: %s\nbatch:  %s",
			resp.Body, wantJSON.Bytes())
	}
	if _, hit := e.Rendered(TierFull); !hit {
		t.Fatal("second render must be a cache hit")
	}
}

// TestServeEpochProgression pins the epoch publication cadence: interval 4
// over 12 batches publishes epochs at batch frontiers 4, 8, 12 — the last one
// final — each carrying the diff against its predecessor.
func TestServeEpochProgression(t *testing.T) {
	s := NewServer(nil)
	if _, err := s.Ingest(src(stream(12)), IngestOptions{Config: core.Config{EpochInterval: 4}}); err != nil {
		t.Fatal(err)
	}
	hist := s.Epochs()
	if len(hist) != 3 {
		t.Fatalf("epochs = %d, want 3 (frontiers 4, 8, 12)", len(hist))
	}
	for i, wantBatches := range []int{4, 8, 12} {
		if hist[i].Batches != wantBatches {
			t.Errorf("epoch %d frontier = %d, want %d", i+1, hist[i].Batches, wantBatches)
		}
		if hist[i].ID != i+1 {
			t.Errorf("epoch ID = %d, want %d", hist[i].ID, i+1)
		}
	}
	if hist[0].Final || hist[1].Final || !hist[2].Final {
		t.Errorf("finality flags wrong: %v %v %v", hist[0].Final, hist[1].Final, hist[2].Final)
	}
	// The stream grows (email at batch 4, city at batch 8), so both later
	// epochs must report changes against their predecessors.
	if len(hist[1].Diff.Changes) == 0 || len(hist[2].Diff.Changes) == 0 {
		t.Errorf("expected non-empty diffs, got %d and %d changes",
			len(hist[1].Diff.Changes), len(hist[2].Diff.Changes))
	}
}

// TestServeShardedPublishes runs a sharded ingest: the router publishes one
// fleet epoch every EpochInterval source batches, each byte-identical to
// Discover over the batches before its cut, and the last one — the
// stream ends on a cut — is re-stamped final with the run's schema. The
// history keeps rows only, so each epoch is captured as a reader would
// hold it: the current one, seen from a chained OnEpoch hook just before
// the next publish replaces it, and the final one after the ingest.
func TestServeShardedPublishes(t *testing.T) {
	batches := stream(16)
	cfg := core.Config{Shards: 2, EpochInterval: 4}

	s := NewServer(nil)
	var held []*Epoch
	cfg.OnEpoch = func(snap core.EpochSnapshot) {
		// Skip the boot placeholder, and the current epoch when the final
		// re-send of its number is about to replace it.
		if e := s.Current(); e.ID != 0 && e.ID != snap.Epoch {
			held = append(held, e)
		}
	}
	if _, err := s.Ingest(src(batches), IngestOptions{Config: cfg}); err != nil {
		t.Fatal(err)
	}
	held = append(held, s.Current())
	hist := s.Epochs()
	if len(hist) != 4 || len(held) != 4 {
		t.Fatalf("epochs = %d rows, %d held, want 4 (frontiers 4, 8, 12, 16)", len(hist), len(held))
	}
	for i, e := range held {
		k := 4 * (i + 1)
		if e.ID != i+1 || e.Batches != k || e.Seq != k-1 || e.Final != (i == 3) {
			t.Errorf("epoch %d = {ID %d, Batches %d, Seq %d, Final %t}, want {%d, %d, %d, %t}",
				i, e.ID, e.Batches, e.Seq, e.Final, i+1, k, k-1, i == 3)
		}
		if !reflect.DeepEqual(hist[i], e.EpochInfo) {
			t.Errorf("history row %d differs from the row of the epoch readers held", i)
		}
		want := shardedJSON(t, batches[:k], cfg)
		if resp, _ := e.Rendered(TierFull); !bytes.Equal(resp.Body, want) {
			t.Errorf("epoch %d schema differs from Discover over the first %d batches", e.ID, k)
		}
	}
}

// shardedJSON renders Discover over batches as schema JSON.
func shardedJSON(t *testing.T, batches []*pg.Batch, cfg core.Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := serialize.WriteJSON(&buf, core.Discover(pg.NewSliceSource(batches...), cfg).Def); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeShardedFrontiers: under sharding every epoch frontier counts
// source batches — mid-stream and final alike — so /epochs never goes
// backwards. 12 one-node batches over 3 shards at interval 4 publish cuts at
// 4 and 8 and the cut at 12, re-stamped final.
func TestServeShardedFrontiers(t *testing.T) {
	var batches []*pg.Batch
	for i := 0; i < 12; i++ {
		batches = append(batches, &pg.Batch{Nodes: []pg.NodeRecord{{
			ID: pg.ID(i + 1), Labels: []string{"Person"}, Props: pg.Properties{"name": pg.Str("p")},
		}}})
	}
	for _, interval := range []int{4, 5} {
		s := NewServer(nil)
		if _, err := s.Ingest(src(batches), IngestOptions{Config: core.Config{Shards: 3, EpochInterval: interval}}); err != nil {
			t.Fatal(err)
		}
		hist := s.Epochs()
		last := hist[len(hist)-1]
		if !last.Final || last.Batches != 12 || last.Seq != 11 {
			t.Errorf("interval %d: final epoch {Final %t, Batches %d, Seq %d}, want {true, 12, 11}",
				interval, last.Final, last.Batches, last.Seq)
		}
		for i := 1; i < len(hist); i++ {
			if hist[i].Batches <= hist[i-1].Batches || hist[i].Seq <= hist[i-1].Seq {
				t.Errorf("interval %d: frontier did not advance: epoch %d {%d, %d} after {%d, %d}", interval,
					hist[i].ID, hist[i].Batches, hist[i].Seq, hist[i-1].Batches, hist[i-1].Seq)
			}
		}
	}
}

// TestServeShardedGracefulResume stops a sharded ingest mid-stream and
// resumes a fresh server from its fleet container: the resumed schema is
// byte-identical to an uninterrupted sharded run, and the epoch frontiers of
// both servers, in order, strictly increase — cuts the resumed router
// replays publish nothing.
func TestServeShardedGracefulResume(t *testing.T) {
	batches := stream(16)
	cfg := core.Config{Shards: 2, EpochInterval: 3}
	want := shardedJSON(t, batches, cfg)

	ck := &memCheckpointer{}
	s1 := NewServer(nil)
	var pulled atomic.Int64
	gate := &gateSource{src: src(batches), after: 7, hit: func() { s1.StopIngest() }, pulled: &pulled}
	if _, err := s1.Ingest(gate, IngestOptions{Config: cfg, Run: core.RunOptions{Checkpoint: ck}}); err != nil {
		t.Fatalf("interrupted ingest: %v", err)
	}
	if pulled.Load() >= int64(len(batches)) {
		t.Fatalf("stop did not interrupt the stream (pulled %d)", pulled.Load())
	}
	ck.mu.Lock()
	state := append([]byte(nil), ck.state...)
	ck.mu.Unlock()

	s2 := NewServer(nil)
	if _, err := s2.Ingest(src(batches), IngestOptions{Config: cfg, Run: core.RunOptions{Checkpoint: ck, Resume: state}}); err != nil {
		t.Fatalf("resumed ingest: %v", err)
	}
	if resp, _ := s2.Current().Rendered(TierFull); !bytes.Equal(resp.Body, want) {
		t.Fatal("resumed sharded schema differs from the uninterrupted run")
	}
	hist := append(s1.Epochs(), s2.Epochs()...)
	for i := 1; i < len(hist); i++ {
		if hist[i].Batches <= hist[i-1].Batches || hist[i].Seq <= hist[i-1].Seq {
			t.Errorf("frontier did not advance across stop/resume: {%d, %d} after {%d, %d}",
				hist[i].Batches, hist[i].Seq, hist[i-1].Batches, hist[i-1].Seq)
		}
	}
	if last := hist[len(hist)-1]; !last.Final || last.Batches != len(batches) {
		t.Errorf("last epoch {Final %t, Batches %d}, want {true, %d}", last.Final, last.Batches, len(batches))
	}
}

// TestServeGracefulResume stops an ingest mid-stream via StopIngest, then
// resumes a fresh server from the checkpoint: the resumed run's final schema
// must be byte-identical to an uninterrupted run.
func TestServeGracefulResume(t *testing.T) {
	batches := stream(12)
	cfg := core.Config{EpochInterval: 4}

	want := core.Discover(pg.NewSliceSource(batches...), cfg)
	var wantJSON bytes.Buffer
	if err := serialize.WriteJSON(&wantJSON, want.Def); err != nil {
		t.Fatal(err)
	}

	// First server: stop after the 5th batch has been pulled.
	ck := &memCheckpointer{}
	s1 := NewServer(nil)
	var pulled atomic.Int64
	gate := &gateSource{src: src(batches), after: 5, hit: func() { s1.StopIngest() }, pulled: &pulled}
	if _, err := s1.Ingest(gate, IngestOptions{Config: cfg, Run: core.RunOptions{Checkpoint: ck}}); err != nil {
		t.Fatalf("interrupted ingest: %v", err)
	}
	if pulled.Load() >= int64(len(batches)) {
		t.Fatalf("stop did not interrupt the stream (pulled %d)", pulled.Load())
	}
	ck.mu.Lock()
	state := append([]byte(nil), ck.state...)
	ck.mu.Unlock()
	if len(state) == 0 {
		t.Fatal("no checkpoint written before stop")
	}

	// Second server: resume from the checkpoint over a full replay.
	s2 := NewServer(nil)
	if _, err := s2.Ingest(src(batches), IngestOptions{Config: cfg, Run: core.RunOptions{Checkpoint: ck, Resume: state}}); err != nil {
		t.Fatalf("resumed ingest: %v", err)
	}
	resp, _ := s2.Current().Rendered(TierFull)
	if !bytes.Equal(resp.Body, wantJSON.Bytes()) {
		t.Fatal("resumed served schema differs from uninterrupted run")
	}
}

// TestServeResumedEpochIDsContinue: epoch IDs are core's epoch numbers,
// which ride in the checkpoint, so a server resumed from a stopped ingest
// goes on numbering where the stopped one left off instead of restarting
// at 1, and its epochs are still those of an uninterrupted run.
func TestServeResumedEpochIDsContinue(t *testing.T) {
	batches := stream(12)
	cfg := core.Config{EpochInterval: 2}
	whole := NewServer(nil)
	if _, err := whole.Ingest(src(batches), IngestOptions{Config: cfg}); err != nil {
		t.Fatal(err)
	}

	ck := &memCheckpointer{}
	s1 := NewServer(nil)
	var pulled atomic.Int64
	// Stop on the 6th pull: six batches fold in, ending on a window boundary.
	gate := &gateSource{src: src(batches), after: 5, hit: func() { s1.StopIngest() }, pulled: &pulled}
	if _, err := s1.Ingest(gate, IngestOptions{Config: cfg, Run: core.RunOptions{Checkpoint: ck}}); err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(nil)
	if _, err := s2.Ingest(src(batches), IngestOptions{Config: cfg, Run: core.RunOptions{Checkpoint: ck, Resume: ck.state}}); err != nil {
		t.Fatal(err)
	}
	first, second, want := s1.Epochs(), s2.Epochs(), whole.Epochs()
	if len(first) != 3 || len(second) != 3 {
		t.Fatalf("stopped and resumed servers published %d and %d epochs, want 3 and 3", len(first), len(second))
	}
	for i, e := range append(first, second...) {
		w := want[i]
		if e.ID != w.ID || e.Batches != w.Batches || e.Seq != w.Seq || len(e.Diff.Changes) != len(w.Diff.Changes) {
			t.Errorf("epoch %d = {ID %d, Batches %d, Seq %d, %d changes}, uninterrupted {ID %d, Batches %d, Seq %d, %d changes}",
				i, e.ID, e.Batches, e.Seq, len(e.Diff.Changes), w.ID, w.Batches, w.Seq, len(w.Diff.Changes))
		}
	}
}

// memCheckpointer keeps the latest checkpoint state in memory.
type memCheckpointer struct {
	mu    sync.Mutex
	state []byte
}

func (m *memCheckpointer) Save(state []byte) error {
	m.mu.Lock()
	m.state = append(m.state[:0], state...)
	m.mu.Unlock()
	return nil
}

// gateSource counts pulls and fires a hook once after the Nth.
type gateSource struct {
	src    pg.ErrSource
	after  int64
	hit    func()
	fired  bool
	pulled *atomic.Int64
}

func (g *gateSource) Next() (*pg.Batch, error) {
	n := g.pulled.Add(1)
	if n > g.after && !g.fired {
		g.fired = true
		g.hit()
	}
	return g.src.Next()
}

// TestServeHTTPEndpoints exercises the four endpoints over a real listener.
func TestServeHTTPEndpoints(t *testing.T) {
	s := NewServer(nil)
	if _, err := s.Ingest(src(stream(8)), IngestOptions{Config: core.Config{EpochInterval: 4}}); err != nil {
		t.Fatal(err)
	}
	addr, closer, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	get := func(path string) (int, http.Header, []byte) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header, body
	}

	for _, tier := range []string{"summary", "types", "patterns", "full"} {
		code, hdr, body := get("/schema?detail=" + tier)
		if code != http.StatusOK {
			t.Fatalf("/schema?detail=%s -> %d", tier, code)
		}
		if !json.Valid(body) {
			t.Fatalf("detail=%s body is not valid JSON", tier)
		}
		if hdr.Get("X-PGHive-Epoch") == "" || hdr.Get("X-PGHive-Serve-Micros") == "" {
			t.Fatalf("detail=%s missing timing headers: %v", tier, hdr)
		}
		if tier != "full" {
			var env struct {
				DetailLevel   string `json:"detail_level"`
				Epoch         int    `json:"epoch"`
				RenderTimeUs  *int64 `json:"render_time_us"`
				TokenEstimate int    `json:"token_estimate"`
			}
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("detail=%s envelope: %v", tier, err)
			}
			if env.DetailLevel != tier || env.Epoch == 0 || env.RenderTimeUs == nil || env.TokenEstimate == 0 {
				t.Fatalf("detail=%s envelope wrong: %+v", tier, env)
			}
		}
		// Second request must be a cache hit serving identical bytes.
		_, hdr2, body2 := get("/schema?detail=" + tier)
		if hdr2.Get("X-PGHive-Cache") != "hit" {
			t.Fatalf("detail=%s second request not a cache hit", tier)
		}
		if !bytes.Equal(body, body2) {
			t.Fatalf("detail=%s cached bytes differ", tier)
		}
	}

	// Type filter narrows the summary.
	code, _, body := get("/schema?detail=summary&type=Person")
	if code != http.StatusOK {
		t.Fatalf("filtered summary -> %d", code)
	}
	var sum struct {
		NodeTypes []string `json:"node_types"`
		EdgeTypes []string `json:"edge_types"`
	}
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.NodeTypes) != 1 || sum.NodeTypes[0] != "Person" || len(sum.EdgeTypes) != 0 {
		t.Fatalf("type filter leaked: %+v", sum)
	}

	// Unknown tier is a 400 with a JSON error body.
	code, _, body = get("/schema?detail=everything")
	if code != http.StatusBadRequest || !json.Valid(body) {
		t.Fatalf("bad tier -> %d %s", code, body)
	}

	code, _, body = get("/epochs")
	if code != http.StatusOK {
		t.Fatalf("/epochs -> %d", code)
	}
	var eps struct {
		Current int `json:"current_epoch"`
		Epochs  []struct {
			Epoch   int  `json:"epoch"`
			Batches int  `json:"batches"`
			Final   bool `json:"final"`
		} `json:"epochs"`
	}
	if err := json.Unmarshal(body, &eps); err != nil {
		t.Fatal(err)
	}
	if len(eps.Epochs) != 2 || eps.Current != 2 || !eps.Epochs[1].Final {
		t.Fatalf("/epochs wrong: %+v", eps)
	}

	code, _, body = get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz -> %d", code)
	}
	var hz struct {
		Status string `json:"status"`
		Ingest string `json:"ingest"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Ingest != "done" {
		t.Fatalf("/healthz wrong: %+v", hz)
	}

	code, _, body = get("/metrics")
	if code != http.StatusOK || !json.Valid(body) {
		t.Fatalf("/metrics -> %d", code)
	}
}

// TestServeConcurrentReadIngest is the -race hammer: readers pound all four
// tiers over HTTP while a multi-epoch ingest runs underneath. Every response
// must be valid JSON, epochs observed by any one reader must be monotone, and
// a retained early epoch must serve identical bytes afterwards (immutability).
func TestServeConcurrentReadIngest(t *testing.T) {
	s := NewServer(nil)
	addr, closer, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	// Retain the first real epoch and its rendered bytes as the immutability
	// witness.
	var witness struct {
		mu   sync.Mutex
		e    *Epoch
		body []byte
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	tiers := []string{"summary", "types", "patterns", "full"}
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastEpoch := 0
			client := &http.Client{}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				resp, err := client.Get(fmt.Sprintf("http://%s/schema?detail=%s", addr, tiers[i%len(tiers)]))
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if !json.Valid(body) {
					t.Errorf("reader %d: invalid JSON at tier %s", r, tiers[i%len(tiers)])
					return
				}
				var epoch int
				fmt.Sscanf(resp.Header.Get("X-PGHive-Epoch"), "%d", &epoch)
				if epoch < lastEpoch {
					t.Errorf("reader %d: epoch regressed %d -> %d", r, lastEpoch, epoch)
					return
				}
				lastEpoch = epoch
				if epoch >= 1 {
					witness.mu.Lock()
					if witness.e == nil {
						e := s.Current()
						rd, _ := e.Rendered(TierFull)
						witness.e, witness.body = e, append([]byte(nil), rd.Body...)
					}
					witness.mu.Unlock()
				}
			}
		}(r)
	}

	if _, err := s.Ingest(src(stream(24)), IngestOptions{Config: core.Config{EpochInterval: 2}}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	close(done)
	wg.Wait()

	if len(s.Epochs()) < 3 {
		t.Fatalf("want multiple epochs during hammer, got %d", len(s.Epochs()))
	}
	witness.mu.Lock()
	defer witness.mu.Unlock()
	if witness.e != nil {
		rd, hit := witness.e.Rendered(TierFull)
		if !hit {
			t.Error("witness epoch lost its cache")
		}
		if !bytes.Equal(rd.Body, witness.body) {
			t.Error("retained epoch's bytes changed after later publishes — epoch not immutable")
		}
	}
}

// TestServeEpochsBodyConsistent: /epochs reads the history rows and the
// current epoch's ID under one hold of the writer lock, so every body is one
// snapshot: current_epoch is the last row's epoch (0 before the first), and
// row epochs strictly increase. A reader polls it while a paced ingest
// publishes an epoch per batch.
func TestServeEpochsBodyConsistent(t *testing.T) {
	const batches = 40
	s := NewServer(nil)
	h := s.Handler()
	done := make(chan error, 1)
	go func() {
		_, err := s.Ingest(NewPaceSource(src(stream(batches)), time.Millisecond),
			IngestOptions{Config: core.Config{EpochInterval: 1}})
		done <- err
	}()
	last := 0
	for polls, ingesting := 0, true; ingesting; polls++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Ingest: %v", err)
			}
			ingesting = false
		default:
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/epochs", nil))
		var body struct {
			Current int `json:"current_epoch"`
			Epochs  []struct {
				Epoch int `json:"epoch"`
			} `json:"epochs"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("poll %d: %v", polls, err)
		}
		last = 0
		for _, row := range body.Epochs {
			if row.Epoch <= last {
				t.Fatalf("poll %d: row epoch %d after %d", polls, row.Epoch, last)
			}
			last = row.Epoch
		}
		if body.Current != last {
			t.Fatalf("poll %d: current_epoch %d, last row's epoch %d", polls, body.Current, last)
		}
	}
	if last != batches {
		t.Errorf("after ingest /epochs ends at epoch %d, want %d", last, batches)
	}
}

// TestPublishStoresCoreEpochs: publish stores what core's clock hands it —
// number, frontier, finality, Def and the change report of its Changes —
// appends a new number, and lets the final re-send of the last number
// replace it in place. A resumed run's numbering is kept as given.
func TestPublishStoresCoreEpochs(t *testing.T) {
	s := NewServer(nil)
	d1 := core.Discover(pg.NewSliceSource(stream(4)...), core.Config{}).Def
	d2 := core.Discover(pg.NewSliceSource(stream(8)...), core.Config{}).Def
	changes := schema.Diff(d1, d2)
	if len(changes) == 0 {
		t.Fatal("test stream does not grow between 4 and 8 batches")
	}

	e1 := s.publish(core.EpochSnapshot{Epoch: 1, Batches: 4, Seq: 3, Def: d1})
	if e1.ID != 1 || e1.Batches != 4 || e1.Seq != 3 || e1.Final || len(e1.Diff.Changes) != 0 {
		t.Fatalf("baseline epoch = {ID %d, Batches %d, Seq %d, Final %t, %d changes}",
			e1.ID, e1.Batches, e1.Seq, e1.Final, len(e1.Diff.Changes))
	}
	e2 := s.publish(core.EpochSnapshot{Epoch: 2, Batches: 8, Seq: 7, Def: d2, Changes: changes})
	if e2.ID != 2 || len(e2.Diff.Changes) != len(changes) || e2.Diff.Counts[changes[0].Kind.Slug()] == 0 {
		t.Fatalf("epoch 2 = {ID %d, %d changes, counts %v}, want the report of %d changes",
			e2.ID, len(e2.Diff.Changes), e2.Diff.Counts, len(changes))
	}
	final := s.publish(core.EpochSnapshot{Epoch: 2, Batches: 8, Seq: 7, Final: true, Def: d2, Changes: changes})
	hist := s.Epochs()
	if len(hist) != 2 || !reflect.DeepEqual(hist[1], final.EpochInfo) || s.Current() != final || !final.Final {
		t.Fatalf("final re-send must replace epoch 2 in place: history %d, final %t", len(hist), final.Final)
	}
	if e2.Final || e2.Def != d2 {
		t.Errorf("final re-send mutated the superseded epoch 2: Final %t", e2.Final)
	}
	if len(final.Diff.Changes) != len(changes) {
		t.Errorf("final re-send lost its changes: %d, want %d", len(final.Diff.Changes), len(changes))
	}

	resumed := NewServer(nil)
	if e := resumed.publish(core.EpochSnapshot{Epoch: 5, Batches: 20, Seq: 19, Def: d2}); e.ID != 5 {
		t.Errorf("resumed server renumbered epoch 5 as %d", e.ID)
	}
}

// TestParseTierRoundTrip pins the tier spelling table.
func TestParseTierRoundTrip(t *testing.T) {
	for _, name := range []string{"summary", "types", "patterns", "full"} {
		tier, err := ParseTier(name)
		if err != nil || tier.String() != name {
			t.Errorf("ParseTier(%q) = %v, %v", name, tier, err)
		}
	}
	if tier, err := ParseTier(""); err != nil || tier != TierSummary {
		t.Errorf("empty detail must mean summary")
	}
	if _, err := ParseTier("verbose"); err == nil {
		t.Error("unknown tier must error")
	}
}

// filteredEntries counts the epoch's cached type-filtered responses.
func filteredEntries(e *Epoch) int {
	n := 0
	e.filtered.Range(func(any, any) bool { n++; return true })
	return n
}

// TestServeFilterCacheBounded: a type filter naming no type of the epoch is
// rendered on every request and never cached, so clients cycling through
// distinct names cannot grow a resident server's heap. Each such response is
// the filtered render it always was: for detail=full, the empty schema.
func TestServeFilterCacheBounded(t *testing.T) {
	s := NewServer(nil)
	if _, err := s.Ingest(src(stream(12)), IngestOptions{Config: core.Config{EpochInterval: 4}}); err != nil {
		t.Fatal(err)
	}
	var empty bytes.Buffer
	if err := serialize.WriteJSON(&empty, &schema.Def{}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	get := func(query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/schema?"+query, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s -> %d", query, rec.Code)
		}
		return rec
	}
	for i := 0; i < 1000; i++ {
		rec := get(fmt.Sprintf("detail=full&type=nosuch%d", i))
		if !bytes.Equal(rec.Body.Bytes(), empty.Bytes()) {
			t.Fatalf("type=nosuch%d body %q, want the empty schema %q", i, rec.Body.Bytes(), empty.Bytes())
		}
	}
	if n := filteredEntries(s.Current()); n != 0 {
		t.Fatalf("%d filtered cache entries after 1000 unknown type names, want 0", n)
	}
	// A filter naming a type renders once, then hits the cache.
	for _, want := range []string{"miss", "hit"} {
		if got := get("detail=full&type=Person").Header().Get("X-PGHive-Cache"); got != want {
			t.Errorf("type=Person: cache %q, want %q", got, want)
		}
	}
	if n := filteredEntries(s.Current()); n != 1 {
		t.Errorf("%d filtered cache entries after one known type, want 1", n)
	}
}

// BenchmarkServeCacheHit is the CI-gated zero-alloc contract: after the first
// render, serving a tier costs one atomic load and zero allocations.
func BenchmarkServeCacheHit(b *testing.B) {
	s := NewServer(nil)
	if _, err := s.Ingest(src(stream(8)), IngestOptions{Config: core.Config{EpochInterval: 4}}); err != nil {
		b.Fatal(err)
	}
	e := s.Current()
	for t := TierSummary; t < numTiers; t++ {
		if _, hit := e.Rendered(t); hit {
			b.Fatal("warm-up render unexpectedly hit")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, hit := e.Rendered(Tier(i % int(numTiers)))
		if !hit || rd == nil {
			b.Fatal("cache miss on hot path")
		}
	}
}
