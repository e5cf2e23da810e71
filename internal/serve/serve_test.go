package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// post sends one request to path: a string body verbatim (bodies already
// rendered, and the malformed ones), any other body — an AnswerRequest,
// ExtRequest or ReductionRequest — as its JSON encoding.
func post(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(jsonBody(t, body)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// jsonBody renders a request body for posting (see post).
func jsonBody(t *testing.T, body any) string {
	t.Helper()
	if s, ok := body.(string); ok {
		return s
	}
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// blowupBody is the i-th Example 3.2 query on the blowup source.
func blowupBody(i int) AnswerRequest {
	return AnswerRequest{Source: "blowup", Query: fmt.Sprintf("root\n  a {= %d}\n  b {= %d}\n", i, i)}
}

const catalogQuery = "catalog\n  product\n    name\n    price {< 200}\n    cat {= 1}\n      subcat\n"

// catalogBody asks Query 1 of the catalog source.
var catalogBody = AnswerRequest{Query: catalogQuery}

// waitFor polls cond for up to 2s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTrickledBodyDoesNotWedgeAdmission: a client that declares a body and
// then trickles it must not hold the only execution slot. The body is read
// before admission under the request deadline, so the trickler times out
// on its own and every well-formed request sent meanwhile is served.
func TestTrickledBodyDoesNotWedgeAdmission(t *testing.T) {
	s, err := New(Config{MaxInflight: 1, Queue: 1, Timeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// 3 of 1000 declared body bytes, then silence.
	if _, err := fmt.Fprintf(conn, "POST /local HTTP/1.1\r\nHost: trickle\r\nContent-Length: 1000\r\n\r\ncat"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the trickler to reach the handler chain", func() bool { return s.inWrap.Load() == 1 })

	for i := 0; i < 4; i++ {
		resp, err := http.Post(srv.URL+"/local", "application/json", strings.NewReader(jsonBody(t, catalogBody)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d behind a trickled body: %d, want 200 (%s)", i, resp.StatusCode, body)
		}
		time.Sleep(350 * time.Millisecond)
	}
	// The trickler itself got its answer: its body read hit the deadline.
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.Contains(status, " 408 ") {
		t.Fatalf("trickler's response: %q (%v), want 408", status, err)
	}
}

// TestAdmissionShedding: with one execution slot and a one-deep queue, a
// stalled handler makes the second request queue and the third shed with
// 429 immediately; the queued request sheds with 503 when its deadline
// expires before a slot frees. Both carry Retry-After.
func TestAdmissionShedding(t *testing.T) {
	s, err := New(Config{Timeout: 700 * time.Millisecond, MaxInflight: 1, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	stall := make(chan struct{})
	entered := make(chan struct{}, 4)
	testHookHandler = func(r *http.Request) {
		if r.URL.Query().Get("stall") != "" {
			entered <- struct{}{}
			<-stall
		}
	}
	defer func() { testHookHandler = nil }()

	// A occupies the only slot and stalls inside the handler.
	aDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { aDone <- post(t, h, "/local?stall=1", catalogBody) }()
	<-entered

	// B queues for the slot.
	bDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { bDone <- post(t, h, "/local", catalogBody) }()
	waitFor(t, "B to queue", func() bool { return s.Stats().Waiting == 1 })

	// C finds the queue full: immediate 429.
	rec := post(t, h, "/local", catalogBody)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("full queue: %d, want 429 (%s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// B's deadline expires while still queued: 503.
	recB := <-bDone
	if recB.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued past deadline: %d, want 503 (%s)", recB.Code, recB.Body)
	}
	if recB.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	close(stall)
	<-aDone // A drains; its own status is irrelevant (deadline long gone)

	st := s.Stats()
	if st.ShedQueueFull != 1 || st.ShedWaitTimeout != 1 {
		t.Errorf("shed counters: queueFull=%d waitTimeout=%d, want 1/1", st.ShedQueueFull, st.ShedWaitTimeout)
	}
	if st.RecoveredPanics != 0 {
		t.Errorf("unexpected recovered panics: %d", st.RecoveredPanics)
	}

	// The server recovered: a normal request succeeds.
	rec = post(t, h, "/local", catalogBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-overload request: %d (%s)", rec.Code, rec.Body)
	}
}

// TestPanicRecovered: a panicking handler yields a 500, bumps the counter,
// and leaves the server serving (the execution slot is released).
func TestPanicRecovered(t *testing.T) {
	s, err := New(Config{Timeout: time.Second, MaxInflight: 1})
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

	for i := 0; i < 3; i++ {
		rec := post(t, h, "/local?boom=1", catalogBody)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("panicking handler: %d, want 500", rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "recovered panic") {
			t.Fatalf("500 body does not report the recovery: %s", rec.Body)
		}
	}
	if got := s.Stats().RecoveredPanics; got != 3 {
		t.Errorf("RecoveredPanics = %d, want 3", got)
	}
	// MaxInflight is 1: if the panics leaked their slots this request
	// would queue forever and shed instead of answering.
	rec := post(t, h, "/local", catalogBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("request after panics: %d (%s)", rec.Code, rec.Body)
	}
}

// TestSourceRouting: the body's source field selects the repository;
// unknown names map to 404.
func TestSourceRouting(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	rec := post(t, h, "/explore", blowupBody(1))
	if rec.Code != http.StatusOK {
		t.Fatalf("/explore on blowup source: %d (%s)", rec.Code, rec.Body)
	}
	rec = post(t, h, "/explore", catalogBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("/explore default source: %d (%s)", rec.Code, rec.Body)
	}
	rec = post(t, h, "/local", AnswerRequest{Source: "nope", Query: catalogQuery})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown source: %d, want 404 (%s)", rec.Code, rec.Body)
	}
}

// TestBlowupUnderBudgetIsTimely: after feeding the server an Example 3.2
// refinement chain (whose exact conjunctive representation blows up,
// Theorem 3.6), a local query under a small step budget and a 150ms
// deadline still answers promptly — degraded, shed, or timed out, but
// never pinned.
func TestBlowupUnderBudgetIsTimely(t *testing.T) {
	s, err := New(Config{Timeout: 150 * time.Millisecond, Budget: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for i := 1; i <= 7; i++ {
		rec := post(t, h, "/explore", blowupBody(i))
		if rec.Code != http.StatusOK && rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("explore %d: %d (%s)", i, rec.Code, rec.Body)
		}
	}
	start := time.Now()
	rec := post(t, h, "/local", blowupBody(8))
	elapsed := time.Since(start)
	switch rec.Code {
	case http.StatusOK, http.StatusGatewayTimeout, http.StatusServiceUnavailable:
	default:
		t.Fatalf("budgeted blowup local answer: %d (%s)", rec.Code, rec.Body)
	}
	// Generous epsilon over the 150ms deadline for scheduling noise and the
	// bounded lossy fallback.
	if elapsed > 3*time.Second {
		t.Fatalf("budgeted request pinned for %v on a 150ms deadline", elapsed)
	}
}
