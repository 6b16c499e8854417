//go:build !race

package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pghive/internal/core"
	"pghive/internal/datagen"
	"pghive/internal/pg"
	"pghive/internal/serialize"
)

// TestServeTiersHitCacheUnderIngest is the serve gate. LDBC at scale 2,000
// is replayed as 48 batches paced 25 ms apart, with an epoch every 8, while
// 4 loopback HTTP readers saturate each detail tier in turn for 200 ms.
// Every tier serves requests, at least 99% of them from the epoch's render
// cache (a miss is the first render of a fresh epoch in that tier). At
// least two epochs are published, and the final detail=full body is
// byte-identical to core.Discover over the same batches.
//
// Race builds skip it: the race detector cuts the readers' request count
// about sixfold while the first-render misses per epoch stay the same, so
// the hit ratio falls under its bound with nothing wrong in the cache.
func TestServeTiersHitCacheUnderIngest(t *testing.T) {
	const (
		readers    = 4
		readWindow = 200 * time.Millisecond
	)
	ds := datagen.Generate(datagen.ProfileByName("LDBC"), datagen.Options{Nodes: 2000, Seed: 1})
	batches := ds.Graph.SplitRandom(48, 1)
	cfg := core.DefaultConfig()
	cfg.PipelineDepth = 1
	cfg.EpochInterval = 8

	s := NewServer(nil)
	addr, closer, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	// The paced stream outlasts the four read windows, so every tier is
	// read while batches fold and epochs swap underneath.
	done := make(chan error, 1)
	go func() {
		_, err := s.Ingest(NewPaceSource(src(batches), 25*time.Millisecond), IngestOptions{Config: cfg})
		done <- err
	}()
	// Read the cache, not the boot placeholder.
	for s.Current().ID == 0 {
		select {
		case err := <-done:
			t.Fatalf("ingest ended before the first epoch: %v", err)
		case <-time.After(time.Millisecond):
		}
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns: 2 * readers, MaxIdleConnsPerHost: 2 * readers,
	}}
	defer client.CloseIdleConnections()
	for tier := TierSummary; tier < numTiers; tier++ {
		url := fmt.Sprintf("http://%s/schema?detail=%s", addr, tier)
		var hits, total atomic.Int64
		var wg sync.WaitGroup
		deadline := time.Now().Add(readWindow)
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) {
					resp, err := client.Get(url)
					if err != nil {
						continue
					}
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					total.Add(1)
					if resp.Header.Get("X-PGHive-Cache") == "hit" {
						hits.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		if total.Load() == 0 {
			t.Errorf("tier %s: no request served", tier)
			continue
		}
		ratio := float64(hits.Load()) / float64(total.Load())
		t.Logf("tier %s: %d requests, hit ratio %.4f", tier, total.Load(), ratio)
		if ratio < 0.99 {
			t.Errorf("tier %s: cache-hit ratio %.4f under 0.99", tier, ratio)
		}
	}

	if err := <-done; err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if n := len(s.Epochs()); n < 2 {
		t.Errorf("%d epochs published, want at least 2", n)
	}
	var want bytes.Buffer
	if err := serialize.WriteJSON(&want, core.Discover(pg.NewSliceSource(batches...), cfg).Def); err != nil {
		t.Fatal(err)
	}
	served, _ := s.Current().Rendered(TierFull)
	if !bytes.Equal(served.Body, want.Bytes()) {
		t.Error("served detail=full differs from core.Discover over the same batches")
	}
}
