package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"incxml/internal/query"
	"incxml/internal/serve"
	"incxml/internal/workload"
)

// measureFunc measures one pass: set-up (repeated, for a median), then the
// timed window.
type measureFunc func(o options, traced bool) (*measurement, error)

var workloads = map[string]measureFunc{
	"mixed":           httpWorkload(planMixed),
	"acquire-durable": httpWorkload(planAcquireDurable),
	"kernels":         measureKernels,
}

// httpWorkload measures the workload a plan describes. Plans depend only
// on the options, so the same seed gives the same schedule traced or not.
func httpWorkload(plan func(o options) (httpSpec, error)) measureFunc {
	return func(o options, traced bool) (*measurement, error) {
		spec, err := plan(o)
		if err != nil {
			return nil, err
		}
		return measureHTTP(o, traced, spec)
	}
}

// setupReps is how many times a pass sets up from scratch; setup_s is the
// median. The last set-up is the one measured.
const setupReps = 5

// openShare is the part of the window spent in the open-loop phase; the
// rest is the closed-loop capacity phase.
const openShare = 0.8

// httpSpec describes an HTTP workload to measureHTTP.
type httpSpec struct {
	cfg    serve.Config
	oracle *oracle
	// fixture, when set, prepares the data directory every set-up starts
	// from; it runs once per pass and is not timed.
	fixture func(dir string) error
	// preload is the fixed work a set-up does after serve.New, before the
	// first timed op.
	preload func(h *harness) error
	// open and closed are the units of the open-loop and closed-loop
	// phases.
	open, closed []unit
}

// measureHTTP sets a server up setupReps times, then drives the last one
// through the timed window and checks every answer with the oracle.
func measureHTTP(o options, traced bool, spec httpSpec) (*measurement, error) {
	m := &measurement{layer: map[string]float64{}}
	scratch, err := os.MkdirTemp(o.outDir, "data-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	fixture := filepath.Join(scratch, "fixture")
	if spec.fixture != nil {
		if err := spec.fixture(fixture); err != nil {
			return nil, fmt.Errorf("fixture: %w", err)
		}
	}
	var tr *tracer
	if traced {
		tr = newTracer()
		m.trace = tr
	}
	reps := setupReps
	if o.short || traced {
		reps = 1
	}
	var h *harness
	for i := 0; i < reps; i++ {
		if h != nil {
			h.close()
		}
		cfg := spec.cfg
		if spec.fixture != nil {
			cfg.DataDir = filepath.Join(scratch, fmt.Sprintf("setup%d", i))
			if err := copyDir(fixture, cfg.DataDir); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		h, err = startServer(cfg, tr)
		if err != nil {
			return nil, err
		}
		if spec.preload != nil {
			if err := spec.preload(h); err != nil {
				h.close()
				return nil, fmt.Errorf("preload: %w", err)
			}
		}
		m.setups = append(m.setups, time.Since(start))
	}
	defer h.close()
	if rec := h.srv.Recovery(); rec != nil {
		m.layer["store.recovery_replayed"] = float64(rec.ReplayedEvents)
	}

	if tr != nil {
		tr.reset()
	}
	m.before = h.srv.MetricsSnapshot()
	steal := startSteal()
	heap := startHeapSampler()
	open := openTime(o.window)
	res := h.drive(&stream{open: spec.open, closed: spec.closed}, open, o.window-open)
	m.cpu = res.openCPU
	m.heapPeak = heap.finish()
	m.steal = steal.finish()
	m.after = h.srv.MetricsSnapshot()

	m.capacity = res.capacity
	m.late = res.late
	var completions, localQueries int
	for _, out := range res.outcomes {
		if out.open {
			m.issued = append(m.issued, out.req.path+" "+out.req.body)
		}
		v := spec.oracle.check(out.req, out.status, out.body)
		if !v.ok && v.mismatch == "" {
			fmt.Fprintf(os.Stderr, "perfbench: failed op: %s status %d: %.200s\n", out.req.path, out.status, out.body)
		}
		m.samples = append(m.samples, sample{
			write: out.req.write(), timed: out.open, lat: out.lat,
			ok: v.ok && v.mismatch == "", exact: v.exact, mismatch: v.mismatch,
		})
		for _, n := range v.localQueries {
			completions++
			localQueries += n
		}
	}
	m.layer["mediator.local_queries_per_completion"] = ratio(float64(localQueries), float64(completions))
	return m, nil
}

// serial sends set-up and preload requests back to back on the first
// connection. Unless faults are injected, any non-2xx answer is an error.
func serial(h *harness, reqs []*request, faults bool) error {
	for _, r := range reqs {
		if status, body := h.post(h.conns[0], r); status != 200 && !faults {
			return fmt.Errorf("%s %s: status %d: %s", r.route, r.path, status, body)
		}
	}
	return nil
}

// poissonDues draws open-loop arrival offsets at rate per second, up to
// the end of the open-loop time.
func poissonDues(rng *rand.Rand, rate float64, end time.Duration) []time.Duration {
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= end {
			return out
		}
		out = append(out, d)
	}
}

// openTime is the length of a window's open-loop phase.
func openTime(window time.Duration) time.Duration {
	return time.Duration(float64(window) * openShare)
}

// scatterRequest posts a ps-query to a scatter route.
func scatterRequest(route string, q query.Query) *request {
	b, err := json.Marshal(serve.AnswerRequest{Query: q.String()})
	if err != nil {
		panic(err)
	}
	path := map[string]string{"scatter_local": "/scatter/local", "scatter_complete": "/scatter/complete"}[route]
	return &request{route: route, path: path, body: string(b), q: &q}
}

// opRequest maps a generated traffic op onto the serving surface with
// serve.RequestForOp, keeping what the oracle needs.
func opRequest(op workload.Op) (*request, error) {
	path, body, err := serve.RequestForOp(op)
	if err != nil {
		return nil, err
	}
	r := &request{path: path, body: body, source: op.Source}
	switch op.Kind {
	case workload.OpExplore, workload.OpLocal, workload.OpComplete:
		q, err := query.Parse(op.Query)
		if err != nil {
			return nil, err
		}
		r.route, r.q = string(op.Kind), &q
	case workload.OpExtended:
		r.route, r.ext = "ext_query", op.Ext
	case workload.OpReduction:
		r.route, r.red = "ext_reduction", op.Red
	default:
		return nil, fmt.Errorf("unknown op kind %q", op.Kind)
	}
	return r, nil
}

// sessions generates traffic and groups it into sessions, one unit each.
func sessions(cfg workload.TrafficConfig) ([]unit, error) {
	ops, err := workload.GenerateTraffic(cfg)
	if err != nil {
		return nil, err
	}
	var out []unit
	for _, op := range ops {
		r, err := opRequest(op)
		if err != nil {
			return nil, err
		}
		if op.Step == 0 {
			out = append(out, unit{})
		}
		out[len(out)-1].reqs = append(out[len(out)-1].reqs, r)
	}
	return out, nil
}

// Mixed-workload parameters. The session rate is a fixed open-loop rate
// well below capacity (the closed loop completes about 600 ops/s, about
// 180 sessions/s, on 2 CPUs).
const (
	mixedExtraSources   = 4
	mixedServeSeed      = 7
	mixedSessionsPerSec = 80
	mixedPreload        = 150  // sessions run serially during set-up
	mixedPreloadSeed    = 1    // the preload is the same for every seed
	mixedReserve        = 4000 // sessions for the closed-loop phase
)

// planMixed is the E25 session stream: workload.GenerateTraffic under
// the default mix, zipf s=1.3 over catalog and cat00–cat03, mapped with
// serve.RequestForOp onto one in-memory shard without faults. Set-up runs a
// fixed preload of the same stream drawn from its own seed. Sessions then
// arrive on a seeded Poisson schedule; each session's ops run back to back
// on one of the two connections. The stream runs as generated: the
// knowledge every session leaves behind, Example 3.2 blow-up chains
// included, stays for the sessions after it.
//
// Why: many cheap requests, so per-request serving cost dominates — decode,
// envelope, certificate, cache lookups, and the extension and reduction
// routes — while folds stay small. It should move with serve, certify,
// webhouse (answer cache), extquery, reductions, engine and intern; it is
// flat on shard, store and faulty, which it does not reach.
func planMixed(o options) (httpSpec, error) {
	sources := []string{"catalog"}
	for i := 0; i < mixedExtraSources; i++ {
		sources = append(sources, fmt.Sprintf("cat%02d", i))
	}
	preload := mixedPreload
	if o.short {
		preload = 10
	}
	pre, err := sessions(workload.TrafficConfig{
		Seed: mixedPreloadSeed, Sessions: preload, Sources: sources, ZipfS: 1.3,
	})
	if err != nil {
		return httpSpec{}, err
	}
	dues := poissonDues(rand.New(rand.NewSource(o.seed)), mixedSessionsPerSec, openTime(o.window))
	timed, err := sessions(workload.TrafficConfig{
		Seed: o.seed, Sessions: len(dues) + mixedReserve, Sources: sources, ZipfS: 1.3,
	})
	if err != nil {
		return httpSpec{}, err
	}
	open, closed := timed[:len(dues)], timed[len(dues):]
	for i := range open {
		open[i].due = dues[i]
	}
	return httpSpec{
		cfg: serve.Config{
			Timeout: failTime, ExtraSources: mixedExtraSources, Seed: mixedServeSeed,
		},
		oracle: newOracle(mixedExtraSources, mixedServeSeed),
		preload: func(h *harness) error {
			for _, u := range pre {
				if err := serial(h, u.reqs, false); err != nil {
					return err
				}
			}
			return nil
		},
		open:   open,
		closed: closed,
	}, nil
}
