package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"incxml/internal/webhouse"
	"incxml/internal/workload"
)

// scheduleBytes renders what a workload will send: every unit's due time
// and each request's path and body. For kernels it is the sequence of
// direct calls drawn from the pool.
func scheduleBytes(t *testing.T, name string, o options) []byte {
	t.Helper()
	var b bytes.Buffer
	if name == "kernels" {
		pool, err := buildKernelPool(o.seed)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(o.seed))
		for i := 0; i < 500; i++ {
			op := pool.nextKernelOp(rng)
			exact, mismatch := op.run(nil)
			fmt.Fprintf(&b, "%s %v %v %q\n", op.name, op.write, exact, mismatch)
		}
		return b.Bytes()
	}
	plan := map[string]func(options) (httpSpec, error){
		"mixed": planMixed, "acquire-durable": planAcquireDurable,
	}[name]
	spec, err := plan(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, units := range [][]unit{spec.open, spec.closed} {
		for _, u := range units {
			fmt.Fprintf(&b, "due %d\n", u.due)
			for _, r := range u.reqs {
				fmt.Fprintf(&b, "  %s %s\n", r.path, r.body)
			}
		}
	}
	return b.Bytes()
}

func TestScheduleDependsOnlyOnSeed(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			o := options{workload: name, seed: 5, window: 2 * time.Second, short: true}
			a, b := scheduleBytes(t, name, o), scheduleBytes(t, name, o)
			if !bytes.Equal(a, b) {
				t.Fatal("the same seed gave two different schedules")
			}
			o.seed = 6
			if bytes.Equal(a, scheduleBytes(t, name, o)) {
				t.Fatal("seeds 5 and 6 gave the same schedule")
			}
		})
	}
}

// shortRun runs a workload in short mode and fails the test on any error,
// oracle mismatch or failed op.
func shortRun(t *testing.T, name string, traced bool) *measurement {
	t.Helper()
	o := options{workload: name, seed: 3, window: 1500 * time.Millisecond, short: true, outDir: t.TempDir()}
	m, err := workloads[name](o, traced)
	if err != nil {
		t.Fatal(err)
	}
	if !m.correct() {
		for _, s := range m.samples {
			if s.mismatch != "" {
				t.Error(s.mismatch)
			}
		}
		t.Fatal("oracle mismatches")
	}
	if len(m.samples) == 0 {
		t.Fatal("no ops attempted")
	}
	return m
}

// benchmarkJSON reads the metric names BENCHMARK.json declares.
func benchmarkJSON(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark has %v", names, workloadNames())
	}
	return endToEnd, perLayer
}

func checkMetrics(t *testing.T, got map[string]metric, want map[string]string, positive bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s not reported", name)
		case m.Unit != unit:
			t.Errorf("metric %s has unit %s, BENCHMARK.json says %s", name, m.Unit, unit)
		case positive && m.Value <= 0:
			t.Errorf("metric %s is %v; end-to-end metrics are never 0", name, m.Value)
		}
	}
}

// TestShortMode runs every workload in short mode, untraced and traced,
// and checks the reported metrics against BENCHMARK.json.
func TestShortMode(t *testing.T) {
	endToEnd, perLayer := benchmarkJSON(t)
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			plain := shortRun(t, name, false)
			checkMetrics(t, plain.endToEnd().Metrics, endToEnd, true)
			traced := shortRun(t, name, true)
			checkMetrics(t, traced.perLayer(plain).Metrics, perLayer, false)
			checkSpans(t, traced.trace.spans)
		})
	}
}

// TestTracedAndUntracedIssueTheSameSchedule compares the requests each
// mode sent in the open-loop phase, where sending follows the schedule
// rather than the server's speed.
func TestTracedAndUntracedIssueTheSameSchedule(t *testing.T) {
	for _, name := range []string{"mixed", "acquire-durable"} {
		t.Run(name, func(t *testing.T) {
			a, b := shortRun(t, name, false).issued, shortRun(t, name, true).issued
			sort.Strings(a)
			sort.Strings(b)
			if len(a) == 0 || fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("untraced run sent %d open-loop requests, traced %d, and they differ", len(a), len(b))
			}
		})
	}
}

// checkSpans asserts that every span nests inside its parent and its
// request, and that no self time is negative.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	byReq := map[int64][]span{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	for req, ss := range byReq {
		root := ss[0]
		if root.Parent != -1 {
			t.Fatalf("request %d: first span %s is not a request span", req, root.Name)
		}
		for _, s := range ss {
			if s.Self < -1e-9 {
				t.Errorf("request %d: span %s has negative self time %v", req, s.Name, s.Self)
			}
		}
		for _, m := range misplaced(ss) {
			t.Errorf("request %d: %s", req, m)
		}
	}
}

func TestBuildSpans(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name, route, header string
		seams               []seam
		want                map[string]float64 // span name -> self ms
		rejected            int
		misplaced           bool
	}{
		{
			name:   "explore",
			route:  "explore",
			header: "explore total=9ms queue=1ms source=2ms",
			seams: []seam{
				{"faulty.call", interval{2 * ms, 3500 * time.Microsecond}},
				{"store.append", interval{8 * ms, 8500 * time.Microsecond}},
			},
			// queue [1,2] (header written at 10); source placed at its
			// call [2,4]; append [8,8.5]. The derived fold [3.5,8] covers
			// nothing, so the request's children cover 3.5 ms.
			want: map[string]float64{
				"serve.request": 12 - 3.5, "serve.queue": 1,
				"webhouse.source": 0.5, "faulty.call": 1.5, "refine.explore_fold": 4.5, "store.append": 0.5,
			},
		},
		{
			name:   "local",
			route:  "local",
			header: "local total=9ms queue=1ms certify=2ms local=5ms/40",
			// local [2,7] holds certify at its end [5,7].
			want: map[string]float64{
				"serve.request": 12 - 1 - 5, "serve.queue": 1, "answer.local": 3, "certify": 2,
			},
		},
		{
			name:   "complete",
			route:  "complete",
			header: "complete total=9ms queue=1ms certify=1ms source=2ms fold=3ms",
			seams: []seam{
				{"faulty.call", interval{3500 * time.Microsecond, 5 * ms}},
				{"store.append", interval{8 * ms, 9 * ms}},
			},
			// queue [1,2], certify [2,3], source at its call [3.5,5.5],
			// fold ending with its record [6,9].
			want: map[string]float64{
				"serve.request": 12 - 1 - 1 - 2 - 3, "webhouse.source": 0.5, "refine.fold": 2, "store.append": 1,
			},
		},
		{
			name:   "scatter",
			route:  "scatter_local",
			header: "scatter_local total=9ms queue=1ms local=3ms local=2ms",
			// Both locals start at the end of the queue [2,5] and [2,4];
			// the derived shard.scatter [2,10] covers nothing.
			want: map[string]float64{
				"serve.request": 12 - 1 - 3, "serve.queue": 1, "shard.scatter": 8,
			},
		},
		{
			name:   "seam outside its request",
			route:  "explore",
			header: "explore total=9ms queue=1ms source=2ms",
			seams: []seam{
				{"faulty.call", interval{2 * ms, 3500 * time.Microsecond}},
				// A journal record tied to the wrong request: it ends after
				// this request's response.
				{"store.append", interval{11 * ms, 13 * ms}},
			},
			want:     map[string]float64{"serve.request": 12 - 3},
			rejected: 1,
		},
		{
			name:   "stage overrunning its request",
			route:  "local",
			header: "local total=3ms queue=1ms local=5ms",
			// queue [7,8], local [8,13] ends after the request [0,12].
			misplaced: true,
		},
	}
	for _, c := range cases {
		spans, rejected := buildSpans(1, c.route, interval{0, 12 * ms}, 10*ms, c.header, c.seams)
		if rejected != c.rejected {
			t.Errorf("%s: %d seams rejected, want %d", c.name, rejected, c.rejected)
		}
		if got := len(misplaced(spans)) > 0; got != c.misplaced {
			t.Errorf("%s: misplaced spans %v, want any: %v", c.name, misplaced(spans), c.misplaced)
		}
		if !c.misplaced {
			checkSpans(t, spans)
		}
		for _, s := range spans {
			if want, ok := c.want[s.Name]; ok && (s.Self < want-1e-6 || s.Self > want+1e-6) {
				t.Errorf("%s: span %s self %.3f ms, want %.3f", c.name, s.Name, s.Self, want)
			}
		}
	}
}

// TestJournalSeamAmbiguous checks that a journal record two in-flight
// requests could have made is tied to neither.
func TestJournalSeamAmbiguous(t *testing.T) {
	tr := newTracer()
	q := workload.Query4()
	for _, addr := range []string{"a", "b"} {
		tr.begin(addr, &request{route: "explore", source: "catalog", q: &q})
	}
	tr.journalSeam(webhouse.JournalEvent{Kind: webhouse.EventObserve, Source: "catalog", Query: q}, interval{1, 2})
	if tr.orphans != 1 || len(tr.inflight["a"].seams)+len(tr.inflight["b"].seams) != 0 {
		t.Fatalf("ambiguous record: %d orphans, seams %v and %v", tr.orphans, tr.inflight["a"].seams, tr.inflight["b"].seams)
	}
	tr.finish("b", "explore", interval{0, 3}, 3, "")
	tr.journalSeam(webhouse.JournalEvent{Kind: webhouse.EventObserve, Source: "catalog", Query: q}, interval{1, 2})
	if len(tr.inflight["a"].seams) != 1 {
		t.Fatalf("unambiguous record not tied to its request")
	}
}
