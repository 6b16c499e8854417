package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"pghive/internal/core"
)

// FuzzServeSchemaQuery sends GET /schema with arbitrary detail and type
// values: the status is 200 or 400, the body is valid JSON, and the
// filtered cache never holds more than one response per (tier, type of the
// epoch).
func FuzzServeSchemaQuery(f *testing.F) {
	s := NewServer(nil)
	if _, err := s.Ingest(src(stream(8)), IngestOptions{Config: core.Config{EpochInterval: 4}}); err != nil {
		f.Fatal(err)
	}
	e := s.Current()
	bound := int(numTiers) * (len(e.Def.Nodes) + len(e.Def.Edges))
	h := s.Handler()
	for _, seed := range [][2]string{
		{"", ""}, {"summary", "Person"}, {"types", "WORKS_AT"}, {"patterns", "Org"},
		{"full", "Person"}, {"full", "nosuch"}, {"verbose", "Person"}, {"types", "\xff\x00\""},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, detail, typeName string) {
		q := url.Values{"detail": {detail}, "type": {typeName}}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/schema?"+q.Encode(), nil))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("detail=%q type=%q: status %d", detail, typeName, rec.Code)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("detail=%q type=%q: invalid JSON body %q", detail, typeName, rec.Body.Bytes())
		}
		if n := filteredEntries(e); n > bound {
			t.Fatalf("filtered cache holds %d responses, bound is %d tiers x types", n, bound)
		}
	})
}
