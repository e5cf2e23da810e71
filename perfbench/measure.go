package main

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"slices"
	"strings"
	"time"
)

// sample is one timed op as the metrics see it.
type sample struct {
	write    bool
	timed    bool // counts toward the latency percentiles
	lat      time.Duration
	ok       bool
	exact    bool
	mismatch string
}

// measurement is everything one pass over a workload produced.
type measurement struct {
	setups   []time.Duration
	samples  []sample
	capacity float64 // 2xx ops per second in the closed loop
	// cpu is the process CPU time over the ops that count toward the
	// latency percentiles: the open-loop phase, whose work the seed fixes
	// (kernels: the whole window).
	cpu      time.Duration
	heapPeak uint64 // bytes
	steal    float64
	late     []time.Duration
	// before and after are metric snapshots around the timed window.
	before, after map[string]float64
	trace         *tracer
	// layer holds per-layer values only the workload itself can compute.
	layer map[string]float64
	// issued lists the requests sent in the open-loop phase, by path and
	// body, in completion order.
	issued []string
}

func (m *measurement) correct() bool {
	for _, s := range m.samples {
		if s.mismatch != "" {
			return false
		}
	}
	return true
}

// percentile returns the p-quantile (0..1) of xs by the nearest-rank rule.
func percentile[T cmp.Ordered](xs []T, p float64) T {
	var zero T
	if len(xs) == 0 {
		return zero
	}
	s := append([]T(nil), xs...)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// latencies returns the timed latencies, optionally of one route group. A
// failed op misses every latency limit: it counts as failTime unless it
// took longer.
func (m *measurement) latencies(group func(sample) bool) []time.Duration {
	var out []time.Duration
	for _, s := range m.samples {
		if !s.timed || (group != nil && !group(s)) {
			continue
		}
		lat := s.lat
		if !s.ok {
			lat = max(lat, failTime)
		}
		out = append(out, lat)
	}
	return out
}

// failTime is the latency charged to a failed op: the server's request
// deadline.
const failTime = 10 * time.Second

// latency is a percentile of the timed latencies, in ms.
func (m *measurement) latency(p float64, group func(sample) bool) float64 {
	return ms(percentile(m.latencies(group), p))
}

func (m *measurement) p50() float64 { return m.latency(0.5, nil) }

// unbounded names the end-to-end figures reported without a regression
// bound: on the 2-vCPU hosts the benchmark was tuned on, their spread from
// run to run (interquartile range over median, ten seeds) reached
// 0.27–0.56, above the largest bound a regression gate can use. They are
// printed with every run and reported as bench.* per-layer metrics.
var unbounded = map[string]bool{
	"capacity_ops_s": true, "p50_ms": true, "p99_ms": true, "read_p99_ms": true, "write_p99_ms": true,
}

// figures computes every end-to-end figure. The shares of failed and of
// inexact answers are reported as their complements, ok_share and
// exact_share, which are never zero.
func (m *measurement) figures() map[string]metric {
	ok, exact, timedOK := 0, 0, 0
	for _, s := range m.samples {
		if s.ok {
			ok++
			if s.exact {
				exact++
			}
			if s.timed {
				timedOK++
			}
		}
	}
	read := func(s sample) bool { return !s.write }
	write := func(s sample) bool { return s.write }
	f := map[string]metric{}
	put := func(name, unit string, v float64) { f[name] = metric{v, unit} }
	put("setup_s", "s", percentile(m.setups, 0.5).Seconds())
	put("capacity_ops_s", "ops/s", m.capacity)
	put("p50_ms", "ms", m.latency(0.5, nil))
	put("p99_ms", "ms", m.latency(0.99, nil))
	put("read_p99_ms", "ms", m.latency(0.99, read))
	put("write_p99_ms", "ms", m.latency(0.99, write))
	put("cpu_ms_per_op", "ms", ratio(ms(m.cpu), float64(timedOK)))
	put("ok_share", "ratio", ratio(float64(ok), float64(len(m.samples))))
	put("exact_share", "ratio", ratio(float64(exact), float64(ok)))
	put("heap_peak_mb", "MB", float64(m.heapPeak)/1e6)
	return f
}

// endToEnd is the result of an untraced run: the bounded end-to-end
// figures.
func (m *measurement) endToEnd() *result {
	res := &result{Correct: m.correct(), Attempted: len(m.samples), Metrics: map[string]metric{}}
	for _, s := range m.samples {
		if !s.ok {
			res.Failed++
			if s.mismatch != "" {
				fmt.Fprintln(os.Stderr, "perfbench: oracle mismatch:", s.mismatch)
			}
		}
	}
	for name, v := range m.figures() {
		if !unbounded[name] {
			res.Metrics[name] = v
		}
	}
	return res
}

// diff sums the growth over the timed window of every sample of a metric
// family whose labels contain each of the given label pairs.
func (m *measurement) diff(family string, labels ...string) float64 {
	return sumFamily(m.after, family, labels...) - sumFamily(m.before, family, labels...)
}

func sumFamily(snap map[string]float64, family string, labels ...string) float64 {
	total := 0.0
	for k, v := range snap {
		if k != family && !strings.HasPrefix(k, family+"{") {
			continue
		}
		all := true
		for _, l := range labels {
			all = all && strings.Contains(k, l)
		}
		if all {
			total += v
		}
	}
	return total
}

// perLayer computes the per-layer metrics of a traced pass; plain is the
// untraced pass of the same seed, for the tracing overhead.
func (m *measurement) perLayer(plain *measurement) *result {
	res := m.endToEnd()
	res.Metrics = map[string]metric{}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	sums := m.trace.sums()
	mean := func(name string) float64 {
		if r := sums.names[name]; r != nil {
			return r.mean()
		}
		return 0
	}
	meanDerived := func(name string) float64 {
		if r := sums.derived[name]; r != nil {
			return r.mean()
		}
		return 0
	}
	count := func(name string) float64 {
		if r := sums.names[name]; r != nil {
			return float64(r.count)
		}
		return 0
	}
	share := func(part, whole float64) float64 { return ratio(part, whole) }

	put("serve.request_ms", "ms", mean("serve.request"))
	put("serve.queue_ms", "ms", mean("serve.queue"))
	put("serve.unattributed_ms", "ms", ratio(sums.unattributedMs, count("serve.request")))
	put("serve.unattributed_share", "ratio", ratio(sums.unattributedMs, sums.requestMs))
	put("serve.shed", "count", m.diff("incxml_serve_shed_total"))

	scatters := m.diff("incxml_shard_scatters_total")
	put("shard.scatter_ms", "ms", meanDerived("shard.scatter"))
	put("shard.scatters", "count", scatters)
	put("shard.degraded_share", "ratio", share(m.diff("incxml_shard_scatter_degraded_total"), scatters))

	hits, misses := m.diff("incxml_webhouse_answer_cache_hits_total"), m.diff("incxml_webhouse_answer_cache_misses_total")
	put("webhouse.answer_cache_hit_ratio", "ratio", share(hits, hits+misses))
	put("webhouse.steps_used_p99", "steps", float64(percentile(m.trace.steps, 0.99)))
	put("webhouse.budget_exhaustions", "count", m.diff("incxml_webhouse_budget_exhaustions_total"))
	put("webhouse.lossy_fallbacks", "count", m.diff("incxml_webhouse_lossy_fallbacks_total"))
	put("webhouse.degraded_answers", "count", m.diff("incxml_webhouse_degraded_answers_total"))

	put("refine.fold_ms", "ms", mean("refine.fold"))
	put("refine.explore_fold_ms", "ms", meanDerived("refine.explore_fold"))
	put("refine.observes", "count", m.diff("incxml_refine_observe_total"))
	put("refine.observe_ms", "ms", mean("refine.observe"))

	dhits, dmisses := m.diff("incxml_cache_hits_total", `cache="decision"`), m.diff("incxml_cache_misses_total", `cache="decision"`)
	put("answer.local_ms", "ms", mean("answer.local")+mean("answer.decide"))
	put("answer.decision_cache_hit_ratio", "ratio", share(dhits, dhits+dmisses))
	put("answer.unknown_verdicts", "count", m.diff("incxml_answer_tri_total", `verdict="unknown"`))

	certs := m.diff("incxml_certify_full_total") + m.diff("incxml_certify_partial_total") + m.diff("incxml_certify_unknown_total")
	put("certify.ms", "ms", mean("certify"))
	put("certify.partial_share", "ratio", share(m.diff("incxml_certify_partial_total"), certs))
	put("certify.unknown_share", "ratio", share(m.diff("incxml_certify_unknown_total"), certs))

	// Joins and negation always answer unknown (Theorems 4.1/4.5/4.7), so
	// the share is taken over the other classes.
	extAll := m.diff("incxml_webhouse_ext_verdicts_total") - m.diff("incxml_webhouse_ext_verdicts_total", `class="join"`) -
		m.diff("incxml_webhouse_ext_verdicts_total", `class="negation"`)
	extUnknown := m.diff("incxml_webhouse_ext_verdicts_total", `verdict="unknown"`) -
		m.diff("incxml_webhouse_ext_verdicts_total", `class="join"`, `verdict="unknown"`) -
		m.diff("incxml_webhouse_ext_verdicts_total", `class="negation"`, `verdict="unknown"`)
	put("extquery.ms", "ms", mean("extquery"))
	put("extquery.unknown_share", "ratio", share(extUnknown, extAll))

	reds := m.diff("incxml_serve_reduction_verdicts_total")
	put("reductions.ms", "ms", meanDerived("reductions"))
	put("reductions.unknown_share", "ratio", share(m.diff("incxml_serve_reduction_verdicts_total", `verdict="unknown"`), reds))

	put("mediator.local_queries_per_completion", "count", m.layer["mediator.local_queries_per_completion"])
	put("mediator.complete_ms", "ms", mean("mediator.complete"))

	put("faulty.call_ms", "ms", mean("faulty.call"))
	put("faulty.attempts_per_call", "count", share(m.diff("incxml_source_attempts_total"), count("faulty.call")))
	put("faulty.retries", "count", m.diff("incxml_source_retries_total"))
	put("faulty.breaker_opens", "count", m.diff("incxml_source_breaker_opens_total"))
	put("faulty.rejections", "count", m.diff("incxml_source_rejections_total"))

	snaps := m.diff("incxml_store_snapshot_duration_micros_count")
	put("store.append_ms", "ms", mean("store.append"))
	put("store.wal_bytes_per_event", "bytes", share(m.diff("incxml_store_wal_bytes_total"), m.diff("incxml_store_wal_appends_total")))
	put("store.snapshots", "count", m.diff("incxml_store_snapshots_total"))
	put("store.snapshot_ms", "ms", share(m.diff("incxml_store_snapshot_duration_micros_sum"), snaps)/1000)
	put("store.recovery_replayed", "count", m.layer["store.recovery_replayed"])

	put("engine.tasks", "count", m.diff("incxml_engine_tasks_total"))
	put("engine.worker_launches", "count", m.diff("incxml_engine_worker_launches_total"))
	put("engine.short_circuits", "count", m.diff("incxml_engine_short_circuits_total"))

	put("conj.empty_ms", "ms", mean("conj.empty"))
	put("conj.steps", "steps", m.layer["conj.steps"])

	ihits, imisses := m.diff("incxml_intern_hits_total"), m.diff("incxml_intern_misses_total")
	put("intern.hit_ratio", "ratio", share(ihits, ihits+imisses))
	put("intern.entries", "count", sumFamily(m.after, "incxml_intern_entries"))

	put("bench.late_ms_p99", "ms", ms(percentile(m.late, 0.99)))
	put("bench.cpu_steal_share", "ratio", m.steal)
	put("bench.orphan_seams", "count", float64(m.trace.orphans))
	put("bench.misplaced_spans", "count", float64(m.trace.misplaced))
	for name, v := range plain.figures() {
		if unbounded[name] {
			res.Metrics["bench."+name] = v
		}
	}
	put("bench.trace_overhead_p50_share", "ratio", ratio(m.p50(), plain.p50())-1)
	put("bench.trace_overhead_capacity_share", "ratio", 1-ratio(m.capacity, plain.capacity))
	return res
}

// heapSampler tracks the peak of the Go heap in use in each second while
// it runs. The peak of a whole window is one extreme, set by what happened
// to be live when the collector ran, and moved by 15% from run to run on
// the same seed; the median of the per-second peaks is not.
type heapSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []uint64 // written by the sampling goroutine until done is closed
}

const (
	heapMetric     = "/memory/classes/heap/objects:bytes"
	heapPeakPeriod = time.Second
)

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var peak uint64
		next := time.Now().Add(heapPeakPeriod)
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			if now := time.Now(); !now.Before(next) {
				h.peaks = append(h.peaks, peak)
				peak, next = 0, now.Add(heapPeakPeriod)
			}
			select {
			case <-h.stop:
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, peak)
				}
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it and returns the median of the
// per-second peaks in bytes. A run shorter than a second reports its peak.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return percentile(h.peaks, 0.5)
}
