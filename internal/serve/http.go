package serve

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"pghive/internal/obs"
	"pghive/internal/schema"
)

// Handler returns the service's HTTP mux:
//
//	GET /schema?detail=summary|types|patterns|full[&type=Name]
//	GET /epochs     — publication history with per-epoch diffs
//	GET /healthz    — liveness + ingest status
//	GET /metrics    — telemetry registry (JSON or Prometheus)
//
// The /schema path is the hot one: it loads the current epoch with a single
// atomic pointer read and serves pre-rendered bytes on a cache hit — no
// mutex anywhere between accept and write.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/schema", s.handleSchema)
	mux.HandleFunc("/epochs", s.handleEpochs)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.Handle("/metrics", s.reg.Handler())
	return mux
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.instr.Gauge(obs.GaugeServeInflightReads, uint64(s.inflight.Add(1)))
	defer func() {
		s.instr.Gauge(obs.GaugeServeInflightReads, uint64(s.inflight.Add(-1)))
	}()
	s.instr.Add(obs.CtrServeRequests, 1)

	tier, err := ParseTier(r.URL.Query().Get("detail"))
	if err != nil {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(http.StatusBadRequest)
		_, _ = w.Write(errorBody(err))
		return
	}
	e := s.cur.Load()
	resp, hit := e.RenderedFiltered(tier, r.URL.Query().Get("type"))
	if hit {
		s.instr.Add(obs.CtrServeCacheHits, 1)
	}

	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("X-PGHive-Epoch", strconv.Itoa(e.ID))
	h.Set("X-PGHive-Detail", tier.String())
	if hit {
		h.Set("X-PGHive-Cache", "hit")
	} else {
		h.Set("X-PGHive-Cache", "miss")
	}
	h.Set("X-PGHive-Render-Micros", strconv.FormatInt(resp.RenderTime.Microseconds(), 10))
	h.Set("X-PGHive-Token-Estimate", strconv.Itoa(resp.TokenEstimate))
	h.Set("X-PGHive-Serve-Micros", strconv.FormatInt(time.Since(start).Microseconds(), 10))
	_, _ = w.Write(resp.Body)
}

// epochEntry is one /epochs history row.
type epochEntry struct {
	Epoch     int               `json:"epoch"`
	Batches   int               `json:"batches"`
	Seq       int               `json:"seq"`
	Final     bool              `json:"final"`
	Published time.Time         `json:"published"`
	Changes   int               `json:"changes"`
	Diff      schema.DiffReport `json:"diff"`
}

func (s *Server) handleEpochs(w http.ResponseWriter, r *http.Request) {
	hist, current := s.history()
	out := struct {
		Current int          `json:"current_epoch"`
		Epochs  []epochEntry `json:"epochs"`
	}{Current: current, Epochs: []epochEntry{}}
	for _, e := range hist {
		out.Epochs = append(out.Epochs, epochEntry{
			Epoch: e.ID, Batches: e.Batches, Seq: e.Seq, Final: e.Final,
			Published: e.Published, Changes: len(e.Diff.Changes), Diff: e.Diff,
		})
	}
	writeJSON(w, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ingest, ingestErr, elements := s.ingest, s.ingestEr, s.elements
	s.mu.Unlock()
	e := s.cur.Load()
	writeJSON(w, struct {
		Status   string  `json:"status"`
		Epoch    int     `json:"epoch"`
		Batches  int     `json:"batches"`
		Final    bool    `json:"final"`
		Ingest   string  `json:"ingest"`
		Error    string  `json:"error,omitempty"`
		Elements uint64  `json:"elements"`
		UptimeS  float64 `json:"uptime_seconds"`
	}{
		Status: "ok", Epoch: e.ID, Batches: e.Batches, Final: e.Final,
		Ingest: ingest, Error: ingestErr, Elements: elements,
		UptimeS: time.Since(s.start).Seconds(),
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write(errorBody(err))
		return
	}
	_, _ = w.Write(append(b, '\n'))
}

// ListenAndServe binds addr (host:port; port 0 picks a free port) and serves
// the handler in the background. It returns the bound address and a closer
// that stops the listener; in-flight requests finish on their own.
func (s *Server) ListenAndServe(addr string) (string, io.Closer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	go func() { _ = http.Serve(ln, s.Handler()) }()
	return ln.Addr().String(), ln, nil
}
