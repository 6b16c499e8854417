package main

import (
	"bytes"
	"encoding/json"
	"hash/maphash"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"
)

// readTiers is the reader's rotation over the schema service's detail tiers.
var readTiers = []string{"summary", "types", "patterns", "full"}

// reader is an open-loop load generator for the schema service: it sends
// one /schema request every interval whatever the earlier ones took, and
// times each from when it was due, so a stall also counts against the
// requests queued behind it. It calls the handler in-process (no sockets),
// from a single goroutine.
type reader struct {
	h        http.Handler
	interval time.Duration
	sink     *benchSink

	latencies []float64 // µs from due time to completion
	maxLate   time.Duration
	reads     int
	failed    int
	hits      int
	// renderMicros holds the render cost the service reports on cache
	// misses (the first read of a tier in a fresh epoch).
	renderMicros []float64
	// firstSeen is when a response first carried each epoch ID.
	firstSeen map[int]time.Time
	lastEpoch int

	// The reader's own costs stay off the program's back: responses land
	// in one reused buffer, and a body is parsed as JSON only when its hash
	// differs from the last valid body of its tier (cache hits repeat the
	// same bytes for a whole epoch).
	resp      responseBuffer
	seed      maphash.Seed
	validHash []uint64 // by tier
}

func newReader(h http.Handler, interval time.Duration, sink *benchSink) *reader {
	return &reader{
		h: h, interval: interval, sink: sink,
		firstSeen: map[int]time.Time{}, lastEpoch: -1,
		resp: responseBuffer{header: http.Header{}}, seed: maphash.MakeSeed(),
		validHash: make([]uint64, len(readTiers)),
	}
}

// run sends requests until stop is closed.
func (r *reader) run(stop <-chan struct{}) {
	reqs := make([]*http.Request, len(readTiers))
	for i, t := range readTiers {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/schema?detail="+t, nil)
	}
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * r.interval)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		sent := time.Now()
		if late := sent.Sub(due); late > r.maxLate {
			r.maxLate = late
		}
		r.read(i%len(reqs), reqs[i%len(reqs)], due, sent)
	}
}

// read issues one request and checks the response: status 200, a body
// that parses as JSON, and an epoch ID that never goes backwards.
func (r *reader) read(tier int, req *http.Request, due, sent time.Time) {
	r.resp.reset()
	r.h.ServeHTTP(&r.resp, req)
	done := time.Now()
	r.sink.benchSpan(0, noParent, "bench.read", "serve", tidReader, sent, done, 1)
	r.reads++
	r.latencies = append(r.latencies, float64(done.Sub(due).Nanoseconds())/1e3)
	epoch, err := strconv.Atoi(r.resp.header.Get("X-PGHive-Epoch"))
	if r.resp.code != http.StatusOK || err != nil || epoch < r.lastEpoch || !r.validJSON(tier) {
		r.failed++
		return
	}
	r.lastEpoch = epoch
	if _, ok := r.firstSeen[epoch]; !ok {
		r.firstSeen[epoch] = done
	}
	if r.resp.header.Get("X-PGHive-Cache") == "hit" {
		r.hits++
	} else if us, err := strconv.ParseFloat(r.resp.header.Get("X-PGHive-Render-Micros"), 64); err == nil {
		r.renderMicros = append(r.renderMicros, us)
	}
}

func (r *reader) validJSON(tier int) bool {
	h := maphash.Bytes(r.seed, r.resp.body.Bytes())
	if h == r.validHash[tier] {
		return true
	}
	if !json.Valid(r.resp.body.Bytes()) {
		return false
	}
	r.validHash[tier] = h
	return true
}

// responseBuffer is a reusable http.ResponseWriter.
type responseBuffer struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (b *responseBuffer) reset() {
	clear(b.header)
	b.code = 0
	b.body.Reset()
}

func (b *responseBuffer) Header() http.Header { return b.header }

func (b *responseBuffer) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

func (b *responseBuffer) Write(p []byte) (int, error) {
	b.WriteHeader(http.StatusOK)
	return b.body.Write(p)
}
