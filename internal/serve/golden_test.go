package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// goldenCase is one pinned request: it is posted in order against its
// server, and the response body must equal testdata/golden/<name>.json
// byte for byte.
type goldenCase struct {
	name   string
	path   string
	body   string
	status int
}

// Request bodies of the golden cases, as JSON literals so the pinned
// requests never drift with a request type's encoding.
const (
	goldenCatalog = `{"query":"catalog\n  product\n    name\n    price {< 200}\n    cat {= 1}\n      subcat\n"}`
	goldenQuery4  = `{"query":"catalog\n  product\n    name\n    cat {= 1}\n      subcat {= 2}\n"}`
	// goldenBranching is a tractable extended query: two same-label
	// product siblings.
	goldenBranching = `{"pattern":{"label":"catalog","children":[` +
		`{"label":"product","children":[{"label":"name"}]},` +
		`{"label":"product","children":[{"label":"cat","children":[{"label":"subcat"}]}]}]}}`
	// goldenJoin binds the same variable in two branches: a join, whose
	// exactness is never decided.
	goldenJoin = `{"pattern":{"label":"catalog","children":[` +
		`{"label":"product","children":[{"label":"cat","var":"c"}]},` +
		`{"label":"product","children":[{"label":"cat","var":"c"}]}]}}`
	golden3SAT = `{"kind":"3sat","numVars":2,"clauses":[[1,2],[-1]]}`
	goldenDNF  = `{"kind":"dnf","numVars":1,"clauses":[[1,1,1],[-1,-1,-1]]}`
)

// goldenSingle is the single-shard run: every answer route once, plus a
// 400 and a 404 error envelope.
var goldenSingle = []goldenCase{
	{"explore", "/explore", goldenCatalog, http.StatusOK},
	{"local", "/local", goldenQuery4, http.StatusOK},
	{"complete", "/complete", goldenQuery4, http.StatusOK},
	{"scatter_local", "/scatter/local", goldenQuery4, http.StatusOK},
	{"scatter_complete", "/scatter/complete", goldenQuery4, http.StatusOK},
	{"ext_query_branching", "/ext/query", goldenBranching, http.StatusOK},
	{"ext_query_join", "/ext/query", goldenJoin, http.StatusOK},
	{"scatter_ext", "/scatter/ext", goldenBranching, http.StatusOK},
	{"ext_reduction_3sat", "/ext/reduction", golden3SAT, http.StatusOK},
	{"ext_reduction_dnf", "/ext/reduction", goldenDNF, http.StatusOK},
	// With the whole catalog acquired, the branching query is exact.
	{"explore_all", "/explore", `{"query":"catalog!\n"}`, http.StatusOK},
	{"ext_query_exact", "/ext/query", goldenBranching, http.StatusOK},
	{"error_400", "/local", `{"query":"catalog\n","shiny":true}`, http.StatusBadRequest},
	{"error_404", "/local", `{"source":"nope","query":"catalog\n"}`, http.StatusNotFound},
}

// goldenDown is the 2-shard run with shard 1 down after the warm-up: a
// degraded completion and the three scatters over a half-down fleet.
var goldenDown = []goldenCase{
	{"down_complete", "/complete", `{"source":"cat01","query":"catalog\n  product\n    name\n    cat {= 1}\n      subcat {= 2}\n"}`, http.StatusOK},
	{"down_scatter_local", "/scatter/local", goldenQuery4, http.StatusOK},
	{"down_scatter_complete", "/scatter/complete", goldenQuery4, http.StatusOK},
	{"down_scatter_ext", "/scatter/ext", goldenBranching, http.StatusOK},
}

// runGolden posts the cases against h in order and returns each response
// body by case name.
func runGolden(t *testing.T, h http.Handler, cases []goldenCase) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", c.path, strings.NewReader(c.body)))
		if rec.Code != c.status {
			t.Fatalf("%s: status %d, want %d (%s)", c.name, rec.Code, c.status, rec.Body)
		}
		out[c.name] = rec.Body.Bytes()
	}
	return out
}

// goldenBodies runs both golden servers. Neither sets a step budget or
// injects latency or failures, so every body is deterministic.
func goldenBodies(t *testing.T) map[string][]byte {
	t.Helper()
	single, err := New(Config{Timeout: 10 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := runGolden(t, single.Handler(), goldenSingle)

	down, err := New(Config{Timeout: 10 * time.Second, Seed: 1, Shards: 2, ExtraSources: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := down.Handler()
	var warm []goldenCase
	for _, name := range down.Cluster().Sources() {
		if name != "blowup" {
			body := `{"source":"` + name + `","query":"catalog\n  product\n    name\n    price {< 200}\n    cat {= 1}\n      subcat\n"}`
			warm = append(warm, goldenCase{"warm_" + name, "/explore", body, http.StatusOK})
		}
	}
	runGolden(t, h, warm)
	down.Cluster().Group(1).SetDown(true)
	for name, body := range runGolden(t, h, goldenDown) {
		out[name] = body
	}
	return out
}

// TestGoldenV1Bodies pins the v1 wire: every answer route's response body,
// and the 400 and 404 error envelopes, must equal the committed goldens
// byte for byte.
func TestGoldenV1Bodies(t *testing.T) {
	for name, got := range goldenBodies(t) {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: body drifted from its golden:\n got: %s\nwant: %s", name, got, want)
		}
	}
}
