package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// newHealthyServer builds a no-fault server and warms the catalog source.
func newHealthyServer(t *testing.T) (*Server, http.Handler) {
	t.Helper()
	s, err := New(Config{Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := post(t, h, "/explore", catalogBody); rec.Code != http.StatusOK {
		t.Fatalf("warm-up explore: %d (%s)", rec.Code, rec.Body)
	}
	return s, h
}

// TestEnvelopeV1RoundTrip pins the v1 schema: every answer route's response
// must decode into AnswerEnvelope with no unknown fields (a field the
// server emits but the type does not declare is a schema break) and
// re-encode to the identical JSON document. The /local fixture is persisted
// for the CI artifact when V1_FIXTURE_OUT is set.
func TestEnvelopeV1RoundTrip(t *testing.T) {
	_, h := newHealthyServer(t)
	for _, tc := range []struct {
		path string
		body AnswerRequest
	}{
		{"/explore", catalogBody},
		{"/local", query4Body},
		{"/complete", query4Body},
		{"/scatter/local", query4Body},
		{"/scatter/complete", query4Body},
	} {
		rec := post(t, h, tc.path, tc.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d (%s)", tc.path, rec.Code, rec.Body)
		}
		raw := rec.Body.Bytes()
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var env AnswerEnvelope
		if err := dec.Decode(&env); err != nil {
			t.Fatalf("%s: response does not fit the v1 schema: %v\n%s", tc.path, err, raw)
		}
		if env.V != EnvelopeVersion {
			t.Errorf("%s: v = %d, want %d", tc.path, env.V, EnvelopeVersion)
		}
		if env.Completeness == nil || env.Completeness.Verdict == "" {
			t.Errorf("%s: envelope without a completeness certificate", tc.path)
		}
		reenc, err := json.Marshal(&env)
		if err != nil {
			t.Fatal(err)
		}
		var got, want map[string]any
		if err := json.Unmarshal(reenc, &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: envelope does not round-trip:\ndecoded+re-encoded: %s\nserved:             %s",
				tc.path, reenc, raw)
		}
		if tc.path == "/local" {
			if out := os.Getenv("V1_FIXTURE_OUT"); out != "" {
				if err := os.WriteFile(out, raw, 0o644); err != nil {
					t.Errorf("writing V1_FIXTURE_OUT: %v", err)
				}
			}
		}
	}
}

// TestUnknownVersionRejected: an unsupported version is a 400 carrying the
// shared JSON error envelope.
func TestUnknownVersionRejected(t *testing.T) {
	_, h := newHealthyServer(t)
	rec := post(t, h, "/local?v=2", query4Body)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("?v=2: %d, want 400 (%s)", rec.Code, rec.Body)
	}
	var e errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("400 body is not the error envelope: %v (%s)", err, rec.Body)
	}
	if e.V != EnvelopeVersion || e.Status != http.StatusBadRequest || e.Error == "" {
		t.Errorf("error envelope = %+v", e)
	}
}

// TestV0FormsRejected: the retired v0 request forms fail loudly on every
// answer route — a raw ps-query body, a version other than 1 in ?v= or
// Accept-Version, and a ?source= parameter are each a 400 carrying the JSON
// error envelope, never silently answered (a ?source= is never routed to
// the catalog).
func TestV0FormsRejected(t *testing.T) {
	_, h := newHealthyServer(t)
	routes := []struct {
		path string
		body any
	}{
		{"/explore", catalogBody},
		{"/local", query4Body},
		{"/complete", query4Body},
		{"/scatter/local", query4Body},
		{"/scatter/complete", query4Body},
		{"/ext/query", ExtRequestOf("", branchingExtQuery(), 0)},
		{"/scatter/ext", ExtRequestOf("", branchingExtQuery(), 0)},
		{"/ext/reduction", ReductionRequest{Kind: "3sat", NumVars: 1, Clauses: [][]int{{1}}}},
	}
	for _, rt := range routes {
		if rec := post(t, h, rt.path, rt.body); rec.Code != http.StatusOK {
			t.Fatalf("%s: the v1 request itself fails: %d (%s)", rt.path, rec.Code, rec.Body)
		}
		for _, tc := range []struct {
			name, query, header, want string
			body                      any
		}{
			{name: "raw ps-query body", body: query4, want: "bad request body"},
			{name: "?v=0", query: "?v=0", body: rt.body, want: "v0 is retired"},
			{name: "Accept-Version: v0", header: "v0", body: rt.body, want: "v0 is retired"},
			{name: "?source=", query: "?source=blowup", body: rt.body, want: `"source" field`},
		} {
			req := httptest.NewRequest("POST", rt.path+tc.query, strings.NewReader(jsonBody(t, tc.body)))
			if tc.header != "" {
				req.Header.Set("Accept-Version", tc.header)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Errorf("%s %s: %d, want 400 (%s)", rt.path, tc.name, rec.Code, rec.Body)
				continue
			}
			var e errorEnvelope
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Errorf("%s %s: 400 body is not the error envelope: %v (%s)", rt.path, tc.name, err, rec.Body)
				continue
			}
			if e.V != EnvelopeVersion || e.Status != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
				t.Errorf("%s %s: error envelope = %+v, want an error naming %q", rt.path, tc.name, e, tc.want)
			}
		}
	}
}

// TestUnifiedAnswerRequest exercises the JSON AnswerRequest decoder: a body
// naming the source and restating the route's consistency must answer as
// the minimal body does, and the strict-decoding rejections (unknown
// fields, crossed consistency, sourced scatters, negative budgets,
// trailing data) must all be 400s with the error envelope.
func TestUnifiedAnswerRequest(t *testing.T) {
	_, h := newHealthyServer(t)

	recFull := post(t, h, "/local", AnswerRequest{Source: "catalog", Query: query4, Consistency: "local"})
	recMin := post(t, h, "/local", query4Body)
	if recFull.Code != http.StatusOK {
		t.Fatalf("full AnswerRequest: %d (%s)", recFull.Code, recFull.Body)
	}
	var a, b AnswerEnvelope
	if err := json.Unmarshal(recFull.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(recMin.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if a.Answer.Nodes != b.Answer.Nodes || a.Local.Fully != b.Local.Fully {
		t.Errorf("full and minimal bodies answered differently: %+v vs %+v", a.Answer, b.Answer)
	}

	for _, tc := range []struct{ name, path, body string }{
		{"unknown field", "/local", `{"query": "catalog\n", "shiny": true}`},
		{"crossed consistency", "/complete", `{"query": "catalog\n", "consistency": "local"}`},
		{"sourced scatter", "/scatter/local", `{"query": "catalog\n", "source": "catalog"}`},
		{"negative budget", "/local", `{"query": "catalog\n", "budget": -1}`},
		{"trailing data", "/local", `{"query": "catalog\n"} {"again": true}`},
	} {
		rec := post(t, h, tc.path, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400 (%s)", tc.name, rec.Code, rec.Body)
			continue
		}
		var e errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: 400 without the error envelope: %s", tc.name, rec.Body)
		}
	}

	// A JSON request naming the budget field runs under that step cap and
	// still succeeds (the cap tightens the solver budget, never errors).
	rec := post(t, h, "/local", AnswerRequest{Query: query4, Budget: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("budgeted request: %d (%s)", rec.Code, rec.Body)
	}
}
