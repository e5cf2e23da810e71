package serve

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"incxml/internal/cond"
	"incxml/internal/extquery"
	"incxml/internal/obs"
	"incxml/internal/query"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

// requestEpsilon is the slack allowed on top of the configured request
// deadline before a request counts as "pinned": queue wait is already part
// of the deadline, so this only absorbs scheduler noise, the bounded lossy
// fallback, and -race overhead.
const requestEpsilon = 4 * time.Second

// evalSize parses a request's ps-query and evaluates it on the true
// source document — the brute-force oracle for exactness claims.
func evalSize(t *testing.T, doc tree.Tree, req AnswerRequest) int {
	t.Helper()
	q, err := query.Parse(req.Query)
	if err != nil {
		t.Fatalf("oracle query %q: %v", req.Query, err)
	}
	return q.Eval(doc).Size()
}

// dig walks nested objects of a decoded JSON document; nil when any key on
// the way is missing or not an object.
func dig(m map[string]any, keys ...string) any {
	var cur any = m
	for _, k := range keys {
		obj, ok := cur.(map[string]any)
		if !ok {
			return nil
		}
		cur = obj[k]
	}
	return cur
}

// TestChaosSoak drives a mixed concurrent workload — healthy catalog
// traffic, Theorem 3.6 blow-up refinement chains, malformed requests,
// unknown sources, injected source faults, and injected handler panics —
// against a small-budget, small-admission server under -race (via
// scripts/verify.sh), and asserts the serving contract:
//
//   - every response arrives within the deadline plus a scheduling epsilon
//     (nothing pins a goroutine on an exponential instance);
//   - only expected statuses appear, and 500s are exactly the recovered
//     injected panics;
//   - exactness claims stay sound: a /local response claiming full
//     answerability carries q(world), and a non-degraded /complete carries
//     the exact answer — regardless of budget pressure or lossy fallbacks;
//   - after the storm the server answers normally again.
func TestChaosSoak(t *testing.T) {
	const timeout = 500 * time.Millisecond
	s, err := New(Config{
		Timeout: timeout, MaxInflight: 4, Queue: 8, Budget: 30_000,
		FailRate: 0.15, Latency: time.Millisecond, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	testHookHandler = func(r *http.Request) {
		if r.URL.Query().Get("boom") != "" {
			panic("injected handler fault")
		}
	}
	defer func() { testHookHandler = nil }()

	catDoc := workload.PaperCatalog()
	blowDoc := workload.BlowupWorld()

	// Section 4 extension traffic: the soak asserts the never-wrong
	// contract — intractable classes (negation, join) may only ever answer
	// "unknown", and any "yes" exactness claim must match the brute-force
	// in-package oracle on the true world.
	extQueries := map[string]extquery.Query{}
	extOracle := map[string]int{}
	for _, q := range []extquery.Query{
		branchingExtQuery(), pathreExtQuery(), negationExtQuery(),
		{Root: extquery.N("catalog", cond.True(), // join through a shared variable
			extquery.N("product", cond.True(), extquery.V("cat", "x")),
			extquery.N("product", cond.True(), extquery.V("cat", "x")))},
	} {
		body := jsonBody(t, ExtRequestOf("catalog", q, 0))
		extQueries[body] = q
		extOracle[body] = q.Answer(catDoc).Size()
	}
	extBodies := make([]string, 0, len(extQueries))
	for body := range extQueries {
		extBodies = append(extBodies, body)
	}
	sort.Strings(extBodies)
	// Reduction traffic with known oracle verdicts.
	redBody := func(req ReductionRequest) string { return jsonBody(t, req) }
	redWant := map[string]string{
		redBody(ReductionRequest{Kind: "3sat", NumVars: 2, Clauses: [][]int{{1, 2}, {-1}}}):           "yes",
		redBody(ReductionRequest{Kind: "3sat", NumVars: 1, Clauses: [][]int{{1}, {-1}}}):              "no",
		redBody(ReductionRequest{Kind: "dnf", NumVars: 1, Clauses: [][]int{{1, 1, 1}, {-1, -1, -1}}}): "yes",
		redBody(ReductionRequest{Kind: "dnf", NumVars: 2, Clauses: [][]int{{1, 2, 1}}}):               "no",
	}
	redBodies := make([]string, 0, len(redWant))
	for body := range redWant {
		redBodies = append(redBodies, body)
	}
	sort.Strings(redBodies)

	// Warm the catalog knowledge (the injector may fault the first tries).
	warmed := false
	for i := 0; i < 20 && !warmed; i++ {
		warmed = post(t, h, "/explore", catalogBody).Code == http.StatusOK
	}
	if !warmed {
		t.Fatal("could not warm catalog knowledge through the injector")
	}

	type result struct {
		path    string
		req     any    // the posted request value
		body    string // and its rendering
		code    int
		resp    []byte
		retry   string
		elapsed time.Duration
	}
	do := func(path string, req any) result {
		body := jsonBody(t, req)
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return result{
			path: path, req: req, body: body, code: rec.Code,
			resp: rec.Body.Bytes(), retry: rec.Header().Get("Retry-After"),
			elapsed: time.Since(start),
		}
	}
	// A malformed query field and an empty body are client errors; only
	// admission may turn them away first.
	malformed := AnswerRequest{Query: "not a query {{{"}

	const workers = 8
	const perWorker = 25
	results := make(chan result, workers*perWorker)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < perWorker; i++ {
				switch rng.Intn(12) {
				case 0, 1:
					results <- do("/explore", catalogBody)
				case 2, 3:
					results <- do("/local", query4Body)
				case 4:
					results <- do("/complete", query4Body)
				case 5, 6:
					results <- do("/explore", blowupBody(1+rng.Intn(8)))
				case 7:
					results <- do("/local", blowupBody(1+rng.Intn(8)))
				case 8:
					switch rng.Intn(3) {
					case 0:
						results <- do("/local", malformed)
					case 1:
						results <- do("/local", AnswerRequest{Source: "nope", Query: query4})
					default:
						results <- do("/explore", "")
					}
				case 9:
					results <- do("/local?boom=1", query4Body)
				case 10:
					results <- do("/ext/query", extBodies[rng.Intn(len(extBodies))])
				case 11:
					results <- do("/ext/reduction", redBodies[rng.Intn(len(redBodies))])
				}
			}
		}(w)
	}
	wg.Wait()
	close(results)

	allowed := map[int]bool{
		http.StatusOK: true, http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusTooManyRequests: true, http.StatusInternalServerError: true,
		http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true,
	}
	var total, shed, panics, fullYes, exactCompletes, degradedCompletes int
	var extAnswers, extExactYes int
	for r := range results {
		total++
		if r.elapsed > timeout+requestEpsilon {
			t.Errorf("%s took %v (deadline %v + epsilon)", r.path, r.elapsed, timeout)
		}
		if !allowed[r.code] {
			t.Errorf("%s: unexpected status %d: %s", r.path, r.code, r.resp)
			continue
		}
		if r.req == malformed || r.body == "" {
			switch r.code {
			case http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
			default:
				t.Errorf("%s %q: %d, want 400: %s", r.path, r.body, r.code, r.resp)
			}
		}
		switch r.code {
		case http.StatusInternalServerError:
			if !strings.Contains(string(r.resp), "recovered panic") {
				t.Errorf("%s: 500 that is not a recovered panic: %s", r.path, r.resp)
			}
			panics++
		case http.StatusTooManyRequests:
			shed++
			if r.retry == "" {
				t.Errorf("%s: 429 without Retry-After", r.path)
			}
		case http.StatusOK:
			var m map[string]any
			if err := json.Unmarshal(r.resp, &m); err != nil {
				t.Errorf("%s: bad JSON: %v", r.path, err)
				continue
			}
			doc := catDoc
			if ar, ok := r.req.(AnswerRequest); ok && ar.Source == "blowup" {
				doc = blowDoc
			}
			// Every 200 is a v1 envelope carrying a completeness section.
			if m["v"] != float64(1) {
				t.Errorf("%s: answer without v:1 envelope: %s", r.path, r.resp)
			}
			// Every tree-answer route carries a completeness section; the
			// reduction route decides a formula, not a document.
			if r.path != "/ext/reduction" && dig(m, "completeness", "verdict") == nil {
				t.Errorf("%s: answer without a completeness certificate: %s", r.path, r.resp)
			}
			if strings.HasPrefix(r.path, "/local") {
				if dig(m, "local", "fullyV") == "yes" {
					fullYes++
					if got, want := int(dig(m, "answer", "nodes").(float64)), evalSize(t, doc, r.req.(AnswerRequest)); got != want {
						t.Errorf("%s %q: claims fully answerable with %d nodes, world has %d",
							r.path, r.body, got, want)
					}
				}
			}
			if strings.HasPrefix(r.path, "/complete") {
				if m["degraded"] == false {
					exactCompletes++
					if got, want := int(dig(m, "answer", "nodes").(float64)), evalSize(t, doc, r.req.(AnswerRequest)); got != want {
						t.Errorf("%s %q: non-degraded completion has %d nodes, world has %d",
							r.path, r.body, got, want)
					}
				} else {
					degradedCompletes++
				}
			}
			if r.path == "/ext/query" {
				extAnswers++
				class, _ := dig(m, "extension", "class").(string)
				exactV, _ := dig(m, "extension", "exactV").(string)
				// The never-wrong contract: Section-4-intractable classes
				// must always answer "unknown", whatever the storm does.
				if !extquery.Class(class).Tractable() && exactV != "unknown" {
					t.Errorf("%s: intractable class %q claims verdict %q: %s",
						r.path, class, exactV, r.resp)
				}
				if exactV == "yes" {
					extExactYes++
					if got, want := int(dig(m, "answer", "nodes").(float64)), extOracle[r.body]; got != want {
						t.Errorf("%s: exact claim with %d nodes, oracle has %d: %s",
							r.path, got, want, r.resp)
					}
				}
			}
			if r.path == "/ext/reduction" {
				decision, _ := dig(m, "extension", "decision").(string)
				if decision != "unknown" && decision != redWant[r.body] {
					t.Errorf("%s: decision %q contradicts oracle %q for %s",
						r.path, decision, redWant[r.body], r.body)
				}
			}
		}
	}
	if total != workers*perWorker {
		t.Fatalf("lost responses: %d of %d", total, workers*perWorker)
	}
	if panics == 0 {
		t.Error("storm never hit the panic injection path")
	}
	if extAnswers == 0 {
		t.Error("storm never exercised the extension route")
	}
	_ = extExactYes // may be zero under budget pressure; the soak only forbids wrong claims

	// Recovery: with the storm over, a normal local answer succeeds again
	// (it never touches the faulty source).
	recovered := false
	for i := 0; i < 10 && !recovered; i++ {
		recovered = post(t, h, "/local", query4Body).Code == http.StatusOK
	}
	if !recovered {
		t.Error("server did not recover after the storm")
	}
	st := s.Stats()
	if st.RecoveredPanics == 0 {
		t.Error("stats recorded no recovered panics")
	}

	// The serving counters must match the oracle-counted events exactly:
	// the storm's 429s are precisely the queue-full sheds (the warm-up and
	// recovery probes run sequentially and can never shed), its 500s are
	// precisely the recovered injected panics, and its degraded /complete
	// responses are precisely the webhouse's degraded answers.
	if st.ShedQueueFull != uint64(shed) {
		t.Errorf("ShedQueueFull = %d, storm observed %d 429s", st.ShedQueueFull, shed)
	}
	if st.RecoveredPanics != uint64(panics) {
		t.Errorf("RecoveredPanics = %d, storm observed %d 500s", st.RecoveredPanics, panics)
	}
	if st.DegradedAnswers != uint64(degradedCompletes) {
		t.Errorf("DegradedAnswers = %d, storm observed %d degraded completes",
			st.DegradedAnswers, degradedCompletes)
	}

	// GET /metrics must agree with the same oracles — it reads the same
	// atomics as Stats — and must round-trip through the format parser.
	req := httptest.NewRequest("GET", "/metrics", nil)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, req)
	if mrec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", mrec.Code)
	}
	metricsText := mrec.Body.String()
	fams, err := obs.ParsePrometheus(metricsText)
	if err != nil {
		t.Fatalf("post-soak /metrics unparsable: %v", err)
	}
	checks := map[string]float64{
		`incxml_serve_panics_recovered_total`:                   float64(panics),
		`incxml_serve_shed_total{reason="queue_full"}`:          float64(shed),
		`incxml_webhouse_degraded_answers_total`:                float64(degradedCompletes),
		`incxml_serve_requests_total{route="local",code="500"}`: float64(panics),
	}
	for sample, want := range checks {
		fam, ok := fams[obs.SampleFamily(sample)]
		if !ok {
			t.Errorf("metrics family for %s missing", sample)
			continue
		}
		if got := fam.Samples[sample]; got != want {
			t.Errorf("%s = %v, oracle counted %v", sample, got, want)
		}
	}

	// When the CI soak runs, persist the scrape as a build artifact.
	if out := os.Getenv("CHAOS_METRICS_OUT"); out != "" {
		if err := os.WriteFile(out, []byte(metricsText), 0o644); err != nil {
			t.Errorf("writing CHAOS_METRICS_OUT: %v", err)
		}
	}

	t.Logf("soak: %d requests, %d shed(429), %d panics recovered, %d fully-exact locals, %d exact completes, %d degraded; stats %+v",
		total, shed, panics, fullYes, exactCompletes, degradedCompletes, st)
}
