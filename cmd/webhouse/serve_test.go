package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"incxml/internal/serve"
)

const query4 = `catalog
  product
    name
    cat {= 1}
      subcat {= 2}
`

const catalogQuery = "catalog\n  product\n    name\n    price {< 200}\n    cat {= 1}\n      subcat\n"

// jsonBody renders an answer request as its JSON body.
func jsonBody(t *testing.T, req serve.AnswerRequest) string {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// post sends an answer request for the catalog source to h as JSON.
func post(t *testing.T, h http.Handler, path, query string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(jsonBody(t, serve.AnswerRequest{Query: query})))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decode(t *testing.T, rec *httptest.ResponseRecorder) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("bad JSON response %q: %v", rec.Body.String(), err)
	}
	return m
}

// section fetches a nested object of the v1 answer envelope.
func section(t *testing.T, m map[string]any, key string) map[string]any {
	t.Helper()
	obj, ok := m[key].(map[string]any)
	if !ok {
		t.Fatalf("envelope section %q missing or not an object: %v", key, m[key])
	}
	return obj
}

// A healthy server: explore builds knowledge, /local answers from it,
// /complete returns the exact (non-degraded) answer, /stats reports the
// traffic.
func TestServeHealthySession(t *testing.T) {
	s, err := newServer(2*time.Second, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := s.handler()

	rec := post(t, h, "/explore", catalogQuery)
	if rec.Code != http.StatusOK {
		t.Fatalf("/explore: %d %s", rec.Code, rec.Body)
	}
	if m := decode(t, rec); section(t, m, "answer")["nodes"].(float64) == 0 {
		t.Error("/explore returned an empty answer on the paper catalog")
	}

	rec = post(t, h, "/local", query4)
	if rec.Code != http.StatusOK {
		t.Fatalf("/local: %d %s", rec.Code, rec.Body)
	}
	m := decode(t, rec)
	if section(t, m, "local")["fully"].(bool) {
		t.Error("query 4 should not be fully answerable after one exploration")
	}
	if section(t, m, "completeness")["verdict"] == "full" {
		t.Error("unanswerable query certified complete")
	}

	rec = post(t, h, "/complete", query4)
	if rec.Code != http.StatusOK {
		t.Fatalf("/complete: %d %s", rec.Code, rec.Body)
	}
	m = decode(t, rec)
	if m["degraded"].(bool) {
		t.Error("healthy source produced a degraded completion")
	}
	if section(t, m, "completion")["localQueries"].(float64) == 0 {
		t.Error("completion reported no local queries")
	}
	if section(t, m, "completeness")["verdict"] != "full" {
		t.Errorf("exact completion certified %v, want full", section(t, m, "completeness")["verdict"])
	}

	req := httptest.NewRequest("GET", "/stats", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/stats: %d %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "DegradedAnswers") {
		t.Errorf("stats missing serving counters: %s", rec.Body)
	}

	rec = post(t, h, "/local", "not a query {{{")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed query: %d, want 400", rec.Code)
	}
}

// With injected latency far beyond the per-request timeout, handlers
// answer promptly with 504 instead of hanging for the source.
func TestServeDeadlineMapsTo504(t *testing.T) {
	s, err := newServer(30*time.Millisecond, 0, 5*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := s.handler()
	start := time.Now()
	rec := post(t, h, "/explore", query4)
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("/explore against a stalled source: %d, want 504 (%s)", rec.Code, rec.Body)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("handler blocked %v on a 30ms request deadline", el)
	}
}

// When the source fails every call, a completion posed after a successful
// exploration degrades: 200 with degraded=true and a cause, not an error.
func TestServeDegradedCompletion(t *testing.T) {
	s, err := newServer(2*time.Second, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := s.handler()
	rec := post(t, h, "/explore", catalogQuery)
	if rec.Code != http.StatusOK {
		t.Fatalf("/explore: %d %s", rec.Code, rec.Body)
	}
	// Take the source down after the exploration succeeded.
	s.inj.SetDown(true)
	rec = post(t, h, "/complete", query4)
	if rec.Code != http.StatusOK {
		t.Fatalf("/complete during outage: %d %s (should degrade, not fail)", rec.Code, rec.Body)
	}
	m := decode(t, rec)
	if !m["degraded"].(bool) {
		t.Error("completion during outage not flagged degraded")
	}
	if c, ok := m["cause"].(string); !ok || !strings.Contains(c, "unavailable") {
		t.Errorf("degraded completion cause = %v", m["cause"])
	}
	if !strings.Contains(rec.Body.String(), "answer") {
		t.Error("degraded completion carries no approximate answer")
	}
}
