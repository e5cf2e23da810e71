package main

import (
	"fmt"
	"math/rand"

	"incxml/internal/serve"
	"incxml/internal/workload"
)

// Durable-acquisition parameters.
const (
	durableShards         = 2
	durableExtraSources   = 8
	durableServeSeed      = 7
	durableFailRate       = 0.05
	durableSnapEvery      = 64
	durableFixture        = 40 // sessions written to the data dir before set-up, then closed without a drain
	durablePreload        = 20 // sessions run serially during set-up, so caches and knowledge are warm
	durableSessionsPerSec = 20
	durableScatterEvery   = 4    // every 4th session ends with a scatter op
	durableReserve        = 6000 // sessions for the closed-loop phase
)

// planAcquireDurable runs 2 shards over catalog plus 8 extra sources,
// durable (WAL plus snapshots every 64 appends) and behind fault
// injection (5% transient failures, retried with backoff, at most 4
// attempts: at 10%, about one source call in 10^4 failed every attempt,
// and three runs in ten had a failed op). No per-call latency is injected: a sleep on every source call made every figure
// follow the host's timer and CPU-steal jitter rather than the program.
// Each set-up warm-restarts from a data dir that a fixed seeded prefix of
// the same traffic wrote and closed without draining, so recovery replays
// the WAL tail.
//
// The traffic is workload.GenerateTraffic's catalog acquisition sessions,
// zipf s=1.3 over the 9 sources: explore Query4, explore Query1(bound),
// /local Query1(bound) and complete Query4, with every third session a
// twig-from-examples acquisition instead. The generator has no scatter
// sessions, so every 4th session ends with one scatter op on the same
// connection, /scatter/local and /scatter/complete of Query4 in turn.
// Sessions arrive on a seeded Poisson schedule over two connections.
//
// Why: every explore reaches its source through the retry and breaker
// client, then folds and journals; completions run the Theorem 3.19
// mediator; the scatter routes run the shard fan-out and the certificate
// merge. It should move with faulty, store, shard, mediator, refine and
// certify (and setup_s with recovery); the deciders stay light, and it is
// flat on extquery, reductions and conj.
func planAcquireDurable(o options) (httpSpec, error) {
	sources := []string{"catalog"}
	for i := 0; i < durableExtraSources; i++ {
		sources = append(sources, fmt.Sprintf("cat%02d", i))
	}
	fixtureN, preloadN := durableFixture, durablePreload
	if o.short {
		fixtureN, preloadN = 6, 6
	}
	dues := poissonDues(rand.New(rand.NewSource(o.seed)), durableSessionsPerSec, openTime(o.window))
	all, err := sessions(workload.TrafficConfig{
		Seed: o.seed, Sessions: fixtureN + preloadN + len(dues) + durableReserve, Sources: sources,
		ZipfS: 1.3, Mix: workload.Mix{workload.TrafficCatalog: 1},
	})
	if err != nil {
		return httpSpec{}, err
	}
	for i := durableScatterEvery - 1; i < len(all); i += durableScatterEvery {
		route := "scatter_local"
		if (i/durableScatterEvery)%2 == 1 {
			route = "scatter_complete"
		}
		all[i].reqs = append(all[i].reqs, scatterRequest(route, workload.Query4()))
	}
	var fixture, preload []*request
	for _, u := range all[:fixtureN] {
		fixture = append(fixture, u.reqs...)
	}
	for _, u := range all[fixtureN : fixtureN+preloadN] {
		preload = append(preload, u.reqs...)
	}
	rest := all[fixtureN+preloadN:]
	open, closed := rest[:len(dues)], rest[len(dues):]
	for i := range open {
		open[i].due = dues[i]
	}

	cfg := serve.Config{
		Timeout: failTime, Shards: durableShards, ExtraSources: durableExtraSources,
		Seed: durableServeSeed, FailRate: durableFailRate,
		SnapEvery: durableSnapEvery,
	}
	return httpSpec{
		cfg:    cfg,
		oracle: newOracle(durableExtraSources, durableServeSeed),
		fixture: func(dir string) error {
			c := cfg
			c.DataDir = dir
			h, err := startServer(c, nil)
			if err != nil {
				return err
			}
			defer h.close()
			return serial(h, fixture, true)
		},
		preload: func(h *harness) error { return serial(h, preload, true) },
		open:    open,
		closed:  closed,
	}, nil
}
