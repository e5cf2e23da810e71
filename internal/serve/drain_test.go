package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestDrainShedsNewWorkAndFlushes: Drain refuses new answer requests with
// 503 + Retry-After, waits for inflight requests to finish, and flushes a
// final snapshot of the durable state; the observability endpoints stay up
// throughout.
func TestDrainShedsNewWorkAndFlushes(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Timeout: 2 * time.Second, DataDir: dir, SnapEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if rec := post(t, h, "/explore", catalogBody); rec.Code != http.StatusOK {
		t.Fatalf("warm-up explore: %d (%s)", rec.Code, rec.Body)
	}

	// An inflight request stalls in the handler while Drain runs.
	stall := make(chan struct{})
	entered := make(chan struct{}, 1)
	testHookHandler = func(r *http.Request) {
		if r.URL.Query().Get("stall") != "" {
			entered <- struct{}{}
			<-stall
		}
	}
	defer func() { testHookHandler = nil }()
	inflight := make(chan *httptest.ResponseRecorder, 1)
	go func() { inflight <- post(t, h, "/local?stall=1", catalogBody) }()
	<-entered

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()

	// New work is shed while the drain waits on the stalled request.
	waitFor(t, "draining flag", func() bool { return s.draining.Load() })
	rec := post(t, h, "/local", catalogBody)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: %d, want 503 (%s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("drain 503 without Retry-After")
	}
	// Observability stays up.
	mreq := httptest.NewRequest("GET", "/metrics", nil)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, mreq)
	if mrec.Code != http.StatusOK {
		t.Fatalf("/metrics during drain: %d", mrec.Code)
	}

	select {
	case err := <-drained:
		t.Fatalf("drain finished with a request still inflight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(stall)
	if rec := <-inflight; rec.Code != http.StatusOK {
		t.Fatalf("inflight request during drain: %d (%s)", rec.Code, rec.Body)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The final flush wrote a snapshot for the explored source.
	snaps, err := filepath.Glob(filepath.Join(dir, "shard-*", "snap", "*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots after drain (err=%v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "shard-0", "wal.log")); err != nil {
		t.Fatalf("no WAL after drain: %v", err)
	}
}

// TestDrainWaitsForPreAdmissionRequests: a request that has passed the
// draining check but not yet acquired an execution slot is invisible to
// the admission semaphore and wait gauge — Drain must still wait for it,
// or its mutation would land after the final snapshot flush on a closed
// store and be lost. The request is parked in exactly that window while
// Drain runs.
func TestDrainWaitsForPreAdmissionRequests(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Timeout: 2 * time.Second, DataDir: dir, SnapEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	gate := make(chan struct{})
	parked := make(chan struct{}, 1)
	testHookPostDrainCheck = func() {
		parked <- struct{}{}
		<-gate
	}
	defer func() { testHookPostDrainCheck = nil }()
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(t, h, "/explore", catalogBody) }()
	<-parked

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, "draining flag", func() bool { return s.draining.Load() })
	select {
	case err := <-drained:
		t.Fatalf("drain finished with a request parked before admission: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	if rec := <-done; rec.Code != http.StatusOK {
		t.Fatalf("parked request: %d (%s)", rec.Code, rec.Body)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The parked request's explore made it into the final flush.
	snaps, err := filepath.Glob(filepath.Join(dir, "shard-*", "snap", "*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots after drain (err=%v)", err)
	}
	s2, err := New(Config{Timeout: 2 * time.Second, DataDir: dir, SnapEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	rec2 := s2.Recovery()
	if rec2 == nil || rec2.SnapshotsLoaded == 0 {
		t.Fatalf("restart did not load the flushed snapshots: %+v", rec2)
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestWarmRestartServesSameAnswers: a durable server drained and restarted
// from the same data directory serves byte-identical v1 answer envelopes —
// the recovered knowledge is exactly the pre-shutdown knowledge.
func TestWarmRestartServesSameAnswers(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Timeout: 5 * time.Second, DataDir: dir}

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h1 := s1.Handler()
	for _, body := range []AnswerRequest{catalogBody, {Query: "catalog\n  product\n    name\n    picture\n"}} {
		if rec := post(t, h1, "/explore", body); rec.Code != http.StatusOK {
			t.Fatalf("explore: %d (%s)", rec.Code, rec.Body)
		}
	}
	if rec := post(t, h1, "/explore", blowupBody(1)); rec.Code != http.StatusOK {
		t.Fatalf("explore blowup: %d (%s)", rec.Code, rec.Body)
	}
	probes := []struct {
		name, path string
		body       AnswerRequest
	}{
		{"local", "/local", catalogBody},
		{"local blowup", "/local", blowupBody(1)},
		{"complete", "/complete", catalogBody},
	}
	want := map[string]string{}
	for _, p := range probes {
		rec := post(t, h1, p.path, p.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("probe %s: %d (%s)", p.name, rec.Code, rec.Body)
		}
		want[p.name] = rec.Body.String()
	}
	if err := s1.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("warm restart: %v", err)
	}
	rec2 := s2.Recovery()
	if rec2 == nil {
		t.Fatal("durable server reports no recovery")
	}
	if rec2.SnapshotsLoaded == 0 && rec2.ReplayedEvents == 0 {
		t.Fatalf("warm restart recovered nothing: %+v", rec2)
	}
	if len(rec2.Quarantined) != 0 {
		t.Fatalf("unexpected quarantine: %v", rec2.Quarantined)
	}
	h2 := s2.Handler()
	for _, p := range probes {
		rec := post(t, h2, p.path, p.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("restart probe %s: %d (%s)", p.name, rec.Code, rec.Body)
		}
		if got := rec.Body.String(); got != want[p.name] {
			t.Fatalf("%s envelope changed across warm restart:\n got: %s\nwant: %s", p.name, got, want[p.name])
		}
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}
