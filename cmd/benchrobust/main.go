// Benchrobust measures the robustness layer and writes the results as
// JSON (BENCH_robustness.json by default).
//
// The experiment blocks:
//
//  1. Budgeted vs. exact conjunctive emptiness on the Example 3.2 blowup
//     family: for each prefix of the workload root(a=i, b=i) the program
//     times the exact NP certificate scan (Theorem 3.10) against the
//     budget-guarded three-valued scan, recording the verdicts so the
//     anytime contract — never wrong when it answers — is visible next to
//     the latency it buys.
//
//  2. Serve-mode latency under the chaos soak load: a server with tight
//     admission limits, per-request budgets, and injected source faults
//     takes a mixed burst of requests (explores, local/complete answers,
//     blowups, malformed bodies, unknown sources) from concurrent workers;
//     the program records per-request latency percentiles, the status
//     breakdown, the shed/degradation counters, and a flattened snapshot
//     of the server's /metrics registry.
//
//  3. Metrics overhead (EXPERIMENTS.md E20): serial /local latency with the
//     observability pipeline enabled versus the no-op recorder
//     (obs.SetEnabled(false)), reporting both percentile sets and the p99
//     ratio — the number behind the "<5% overhead" claim.
//
//  4. Raw-speed pass (EXPERIMENTS.md E21): the budgeted-`unknown` crossover
//     of the blowup family under the pruned certificate search (steps used
//     per n at the fixed 20k budget), plus single-worker ns/op and
//     allocs/op of the pruned search versus the reference mixed-radix scan
//     on the hard-empty 2^k family.
//
//  5. Scatter-gather scaling (EXPERIMENTS.md E22): cluster-wide completion
//     latency of the parallel scatter versus the sequential baseline over
//     the same fleet at 1, 2 and 4 shards under injected per-call source
//     latency, plus the one-shard-down p99 at 4 shards — the parallel
//     fan-out must keep degrading per shard without stretching the tail
//     across the healthy ones.
//
//  6. Completeness certificates under outage (EXPERIMENTS.md E23): a soak
//     of random two-shard instances, each with one whole shard down,
//     scattering random linear queries and recording the distribution of
//     scatter-wide completeness ratios, the verdict split, and — the
//     soundness tally — a re-check of every non-empty certificate against
//     the true world documents (overclaims must stay zero).
//
//  7. Durability cost (EXPERIMENTS.md E24): the WAL-append overhead on a
//     serial explore workload with and without an attached store, snapshot
//     size as a function of repository size, and cold recovery time as a
//     function of WAL length.
//
//  8. Mixed extension traffic (EXPERIMENTS.md E25): the workload
//     generator's session-shaped, zipfian-skewed stream — acquisition,
//     blowup chains, Section 4 extension probes, reduction probes, and
//     twig-from-examples sessions — driven through the HTTP surface,
//     with per-class latency percentiles, verdict splits, and an oracle
//     re-check of every definite verdict (mismatches must be zero).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"incxml/internal/budget"
	"incxml/internal/certify"
	"incxml/internal/cond"
	"incxml/internal/conj"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/faulty"
	"incxml/internal/obs"
	"incxml/internal/refine"
	"incxml/internal/serve"
	"incxml/internal/shard"
	"incxml/internal/tree"
	"incxml/internal/webhouse"
	"incxml/internal/workload"
)

type emptinessRow struct {
	N               int     `json:"n"`
	Size            int     `json:"size"`
	ExactEmpty      bool    `json:"exactEmpty"`
	ExactMs         float64 `json:"exactMs"`
	BudgetSteps     int64   `json:"budgetSteps"`
	BudgetedVerdict string  `json:"budgetedVerdict"`
	BudgetedMs      float64 `json:"budgetedMs"`
}

type latencySummary struct {
	P50Ms float64 `json:"p50Ms"`
	P95Ms float64 `json:"p95Ms"`
	P99Ms float64 `json:"p99Ms"`
	MaxMs float64 `json:"maxMs"`
}

type soakReport struct {
	Workers      int            `json:"workers"`
	Requests     int            `json:"requests"`
	TimeoutMs    float64        `json:"timeoutMs"`
	MaxInflight  int            `json:"maxInflight"`
	Queue        int            `json:"queue"`
	BudgetSteps  int64          `json:"budgetSteps"`
	FailRate     float64        `json:"failRate"`
	StatusCounts map[string]int `json:"statusCounts"`
	Latency      latencySummary `json:"latency"`
	Stats        serve.Stats    `json:"stats"`
	// Metrics is the post-soak flattened registry snapshot (sample name,
	// labels included, -> value), the same data GET /metrics exposes.
	Metrics map[string]float64 `json:"metrics"`
}

type overheadReport struct {
	Requests int            `json:"requests"`
	Enabled  latencySummary `json:"enabled"`
	Disabled latencySummary `json:"disabled"`
	// P99Ratio is enabled-p99 / disabled-p99 (1.0 = free metrics).
	P99Ratio float64 `json:"p99Ratio"`
}

// e21Row records one blowup prefix under the fixed E21 budget: the
// three-valued verdict and the steps the pruned search actually charged.
type e21Row struct {
	N       int    `json:"n"`
	Verdict string `json:"verdict"`
	Steps   int64  `json:"steps"`
}

// e21Report is the EXPERIMENTS.md E21 block: where (if anywhere) the
// budgeted verdict degrades to unknown on the blowup family, and the
// single-worker before/after comparison on the hard-empty family.
type e21Report struct {
	BudgetSteps int64 `json:"budgetSteps"`
	MaxN        int   `json:"maxN"`
	// CrossoverN is the first n whose budgeted verdict is unknown;
	// 0 means every prefix up to MaxN stayed exactly decided.
	CrossoverN int      `json:"crossoverN"`
	Blowup     []e21Row `json:"blowup"`

	// Single-worker hard-empty comparison: reference mixed-radix scan
	// ("before") vs the pruned certificate search ("after").
	HardK              int     `json:"hardK"`
	SequentialNsOp     int64   `json:"sequentialNsOp"`
	SequentialAllocsOp int64   `json:"sequentialAllocsOp"`
	PrunedNsOp         int64   `json:"prunedNsOp"`
	PrunedAllocsOp     int64   `json:"prunedAllocsOp"`
	SpeedupX           float64 `json:"speedupX"`
}

// e22Row compares the parallel scatter against the sequential baseline over
// the same fleet at one shard count.
type e22Row struct {
	Shards       int     `json:"shards"`
	ScatterP50Ms float64 `json:"scatterP50Ms"`
	ScatterP99Ms float64 `json:"scatterP99Ms"`
	SeqP50Ms     float64 `json:"seqP50Ms"`
	SeqP99Ms     float64 `json:"seqP99Ms"`
	// SpeedupX is seq-p50 / scatter-p50 (1.0 = no parallel win).
	SpeedupX float64 `json:"speedupX"`
}

// e22Outage is the one-shard-down pass: the scatter must keep answering —
// flagged Theorem 3.14 approximations for the dead shard, exact answers
// elsewhere — without the outage stretching the healthy shards' tail.
type e22Outage struct {
	Shards    int     `json:"shards"`
	DownShard int     `json:"downShard"`
	Rounds    int     `json:"rounds"`
	P99Ms     float64 `json:"p99Ms"`
	// DegradedPerRound is the per-round count of flagged degraded source
	// answers (the down shard's population; everyone else stays exact).
	DegradedPerRound int  `json:"degradedPerRound"`
	AllHealthyExact  bool `json:"allHealthyExact"`
}

// e22Report is the EXPERIMENTS.md E22 block: scatter-gather scaling under
// injected per-call source latency.
type e22Report struct {
	Sources   int       `json:"sources"`
	LatencyMs float64   `json:"latencyMs"`
	Rounds    int       `json:"rounds"`
	Rows      []e22Row  `json:"rows"`
	Outage    e22Outage `json:"outage"`
}

// e23Report is the EXPERIMENTS.md E23 block: the completeness-ratio
// distribution of scatter-wide certificates over a one-shard-outage soak,
// the verdict split, and the soundness tally from re-checking every
// non-empty certificate against the true world documents.
type e23Report struct {
	Shards          int            `json:"shards"`
	SourcesPerRound int            `json:"sourcesPerRound"`
	Rounds          int            `json:"rounds"`
	VerdictCounts   map[string]int `json:"verdictCounts"`
	RatioMin        float64        `json:"ratioMin"`
	RatioP50        float64        `json:"ratioP50"`
	RatioP90        float64        `json:"ratioP90"`
	RatioMax        float64        `json:"ratioMax"`
	RatioMean       float64        `json:"ratioMean"`
	// NonEmptyCertificates counts rounds whose scatter-wide certificate
	// certified at least one query atom despite the outage.
	NonEmptyCertificates int `json:"nonEmptyCertificates"`
	// Overclaims counts certified sub-queries whose answer over a source's
	// certain fragment differed from its answer over the world — the
	// soundness contract says this must stay zero.
	Overclaims int `json:"overclaims"`
	// HealthyFullAnswers counts per-source certificates on reachable
	// sources that certified the whole query (exact completions).
	HealthyFullAnswers int `json:"healthyFullAnswers"`
}

type report struct {
	GeneratedUnix   int64          `json:"generatedUnix"`
	BlowupEmptiness []emptinessRow `json:"blowupEmptiness"`
	ServeSoak       soakReport     `json:"serveSoak"`
	MetricsOverhead overheadReport `json:"metricsOverhead"`
	E21             e21Report      `json:"e21"`
	E22             e22Report      `json:"e22"`
	E23             e23Report      `json:"e23"`
	E24             e24Report      `json:"e24"`
	E25             e25Report      `json:"e25"`
}

func main() {
	out := flag.String("out", "BENCH_robustness.json", "output file")
	maxN := flag.Int("max-n", 9, "largest blowup workload prefix")
	steps := flag.Int64("budget", 20_000, "step budget for the budgeted emptiness scan")
	workers := flag.Int("workers", 8, "concurrent soak workers")
	perWorker := flag.Int("requests", 50, "soak requests per worker")
	overheadN := flag.Int("overhead-requests", 2000, "serial requests per E20 overhead run")
	e21MaxN := flag.Int("e21-max-n", 12, "largest blowup prefix for the E21 crossover scan")
	e21HardK := flag.Int("e21-hard-k", 12, "hard-empty family size for the E21 before/after benchmark")
	e22Sources := flag.Int("e22-sources", 8, "fleet size for the E22 scatter-gather scan")
	e22Rounds := flag.Int("e22-rounds", 7, "timed completion rounds per E22 configuration")
	e22Latency := flag.Duration("e22-latency", 5*time.Millisecond, "injected per-call source latency for E22")
	e23Rounds := flag.Int("e23-rounds", 80, "random outage instances for the E23 certificate soak")
	e24Requests := flag.Int("e24-requests", 400, "serial explores per E24 durability-overhead run")
	e25Sessions := flag.Int("e25-sessions", 80, "generated traffic sessions for the E25 mixed-workload run")
	e25ZipfS := flag.Float64("e25-zipf-s", 1.3, "zipfian source-popularity exponent for E25 (must exceed 1)")
	e25Mix := flag.String("e25-mix", "", "E25 query-class mix, e.g. catalog=4,blowup=2,pathre=2,join=1,negation=1 (empty = default)")
	e25Seed := flag.Int64("e25-seed", 2026, "E25 traffic seed (replayable: same seed, same stream)")
	e25TraceOut := flag.String("e25-trace-out", "", "write the replayable E25 traffic trace (JSONL) to this file")
	flag.Parse()

	rep := report{GeneratedUnix: time.Now().Unix()}
	rep.BlowupEmptiness = benchEmptiness(*maxN, *steps)
	rep.ServeSoak = benchServe(*workers, *perWorker)
	rep.MetricsOverhead = benchOverhead(*overheadN)
	rep.E21 = benchE21(*e21MaxN, *steps, *e21HardK)
	rep.E22 = benchE22(*e22Sources, *e22Rounds, *e22Latency)
	rep.E23 = benchE23(*e23Rounds)
	rep.E24 = benchE24(*e24Requests)
	rep.E25 = benchE25(*e25Sessions, *e25ZipfS, *e25Mix, *e25Seed, *e25TraceOut)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)
}

func benchEmptiness(maxN int, steps int64) []emptinessRow {
	world := workload.BlowupWorld()
	t := conj.FromITree(refine.Universal(workload.BlowupSigma))
	rows := make([]emptinessRow, 0, maxN)
	for n := 1; n <= maxN; n++ {
		q := workload.BlowupQuery(int64(n))
		if err := t.RefinePlus(q, q.Eval(world), workload.BlowupSigma); err != nil {
			fmt.Fprintln(os.Stderr, "refine:", err)
			os.Exit(1)
		}

		start := time.Now()
		empty := t.Empty()
		exactMs := msSince(start)

		bud := budget.New(context.Background(), steps)
		start = time.Now()
		verdict, _ := t.EmptyBudgeted(context.Background(), nil, bud)
		budgetedMs := msSince(start)

		rows = append(rows, emptinessRow{
			N:               n,
			Size:            t.Size(),
			ExactEmpty:      empty,
			ExactMs:         exactMs,
			BudgetSteps:     steps,
			BudgetedVerdict: verdict.String(),
			BudgetedMs:      budgetedMs,
		})
		fmt.Printf("blowup n=%d size=%d exact=%v (%.2fms) budgeted=%s (%.2fms)\n",
			n, t.Size(), empty, exactMs, verdict, budgetedMs)
	}
	return rows
}

const (
	soakTimeout = 500 * time.Millisecond
	soakBudget  = int64(30_000)
)

func benchServe(workers, perWorker int) soakReport {
	s, err := serve.New(serve.Config{
		Timeout:     soakTimeout,
		MaxInflight: 4,
		Queue:       8,
		Budget:      soakBudget,
		FailRate:    0.10,
		Latency:     time.Millisecond,
		Seed:        7,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 10 * time.Second}

	catalogBody := answerBody("", catalogQuery)
	blowupBody := func(i int) string {
		return answerBody("blowup", fmt.Sprintf("root\n  a {= %d}\n  b {= %d}\n", i, i))
	}

	// Warm the catalog so local answers have knowledge to work from; the
	// injected fault rate means a few tries may shed or fail.
	for try := 0; try < 20; try++ {
		if code, _ := post(client, ts.URL+"/explore", catalogBody); code == http.StatusOK {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		counts    = map[string]int{}
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for i := 0; i < perWorker; i++ {
				var path, body string
				switch rng.Intn(10) {
				case 0, 1:
					path, body = "/explore", catalogBody
				case 2, 3:
					path, body = "/local", catalogBody
				case 4:
					path, body = "/complete", catalogBody
				case 5:
					path, body = "/explore", blowupBody(1+rng.Intn(8))
				case 6:
					path, body = "/local", blowupBody(1+rng.Intn(8))
				case 7:
					path, body = "/local", answerBody("", "not a query {{{")
				case 8:
					path, body = "/local", answerBody("nope", catalogQuery)
				default:
					path, body = "/local", ""
				}
				start := time.Now()
				code, _ := post(client, ts.URL+path, body)
				elapsed := time.Since(start)
				mu.Lock()
				latencies = append(latencies, elapsed)
				if code == 0 {
					counts["error"]++
				} else {
					counts[fmt.Sprint(code)]++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep := soakReport{
		Workers:      workers,
		Requests:     workers * perWorker,
		TimeoutMs:    float64(soakTimeout) / float64(time.Millisecond),
		MaxInflight:  4,
		Queue:        8,
		BudgetSteps:  soakBudget,
		FailRate:     0.10,
		StatusCounts: counts,
		Latency: latencySummary{
			P50Ms: pctMs(latencies, 50),
			P95Ms: pctMs(latencies, 95),
			P99Ms: pctMs(latencies, 99),
			MaxMs: pctMs(latencies, 100),
		},
		Stats:   s.Stats(),
		Metrics: s.MetricsSnapshot(),
	}
	fmt.Printf("soak: %d requests, p50=%.1fms p95=%.1fms p99=%.1fms max=%.1fms, statuses=%v\n",
		rep.Requests, rep.Latency.P50Ms, rep.Latency.P95Ms, rep.Latency.P99Ms, rep.Latency.MaxMs, counts)
	return rep
}

// benchOverhead is EXPERIMENTS.md E20: the same serial /local workload
// measured with the observability pipeline live and with the no-op
// recorder (obs.SetEnabled(false)), in-process to keep network noise out
// of the comparison.
func benchOverhead(n int) overheadReport {
	body := answerBody("", catalogQuery)
	run := func(enabled bool) latencySummary {
		prev := obs.SetEnabled(enabled)
		defer obs.SetEnabled(prev)
		s, err := serve.New(serve.Config{Timeout: 5 * time.Second, Budget: 50_000, Trace: enabled})
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		h := s.Handler()
		do := func() int {
			req := httptest.NewRequest("POST", "/local", strings.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec.Code
		}
		for i := 0; i < 50; i++ { // warm caches and code paths
			do()
		}
		lat := make([]time.Duration, n)
		for i := range lat {
			start := time.Now()
			if code := do(); code != http.StatusOK {
				fmt.Fprintln(os.Stderr, "overhead run: unexpected status", code)
				os.Exit(1)
			}
			lat[i] = time.Since(start)
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return latencySummary{
			P50Ms: pctMs(lat, 50),
			P95Ms: pctMs(lat, 95),
			P99Ms: pctMs(lat, 99),
			MaxMs: pctMs(lat, 100),
		}
	}
	disabled := run(false)
	enabled := run(true)
	ratio := 0.0
	if disabled.P99Ms > 0 {
		ratio = enabled.P99Ms / disabled.P99Ms
	}
	fmt.Printf("metrics overhead: p99 enabled=%.3fms disabled=%.3fms ratio=%.3f (n=%d)\n",
		enabled.P99Ms, disabled.P99Ms, ratio, n)
	return overheadReport{Requests: n, Enabled: enabled, Disabled: disabled, P99Ratio: ratio}
}

// benchE21 is EXPERIMENTS.md E21. Part one: run the pruned budgeted search
// on each blowup prefix at the fixed step budget and record the first n (if
// any) where the verdict degrades to unknown — before the raw-speed pass the
// crossover sat at n=6. Part two: single-worker hard-empty emptiness, the
// reference mixed-radix certificate scan versus the pruned search, measured
// with testing.Benchmark so ns/op and allocs/op land in the report.
func benchE21(maxN int, steps int64, hardK int) e21Report {
	rep := e21Report{BudgetSteps: steps, MaxN: maxN, HardK: hardK}

	world := workload.BlowupWorld()
	t := conj.FromITree(refine.Universal(workload.BlowupSigma))
	for n := 1; n <= maxN; n++ {
		q := workload.BlowupQuery(int64(n))
		if err := t.RefinePlus(q, q.Eval(world), workload.BlowupSigma); err != nil {
			fmt.Fprintln(os.Stderr, "refine:", err)
			os.Exit(1)
		}
		bud := budget.New(context.Background(), steps)
		verdict, _ := t.EmptyBudgeted(context.Background(), nil, bud)
		rep.Blowup = append(rep.Blowup, e21Row{N: n, Verdict: verdict.String(), Steps: bud.Used()})
		if verdict == budget.Unknown && rep.CrossoverN == 0 {
			rep.CrossoverN = n
		}
		fmt.Printf("e21 blowup n=%d budgeted=%s steps=%d/%d\n", n, verdict, bud.Used(), steps)
	}

	hard := hardEmptyConj(hardK)
	seq := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !hard.EmptySequential() {
				b.Fatal("hard instance not empty")
			}
		}
	})
	pruned := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !hard.Empty() {
				b.Fatal("hard instance not empty")
			}
		}
	})
	rep.SequentialNsOp = seq.NsPerOp()
	rep.SequentialAllocsOp = seq.AllocsPerOp()
	rep.PrunedNsOp = pruned.NsPerOp()
	rep.PrunedAllocsOp = pruned.AllocsPerOp()
	if pruned.NsPerOp() > 0 {
		rep.SpeedupX = float64(seq.NsPerOp()) / float64(pruned.NsPerOp())
	}
	fmt.Printf("e21 hard-empty k=%d: sequential %dns/op %dallocs/op, pruned %dns/op %dallocs/op (%.1fx)\n",
		hardK, rep.SequentialNsOp, rep.SequentialAllocsOp, rep.PrunedNsOp, rep.PrunedAllocsOp, rep.SpeedupX)
	return rep
}

// newE22Cluster builds a shard cluster over `sources` random catalogs with
// per-call injected latency and fast, bounded retries — the E22 fleet. The
// source names hash 2-2-2-2 over four shards at the default fleet size, so
// the parallel scatter's theoretical win at N=4 is ~4x.
func newE22Cluster(shards, sources int, latency time.Duration) (*shard.Cluster, error) {
	c := shard.New(shard.Config{
		Shards:   shards,
		Injector: faulty.InjectorConfig{Latency: latency},
		Retry: faulty.RetryConfig{
			MaxAttempts: 2, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond,
			BreakerThreshold: 3, BreakerCooldown: 50 * time.Millisecond,
		},
	})
	for i := 0; i < sources; i++ {
		src, err := webhouse.NewSource(fmt.Sprintf("src%02d", i),
			workload.CatalogType(), workload.RandomCatalog(4+i%5, int64(100+i)))
		if err != nil {
			return nil, err
		}
		if _, err := c.Register(src); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// e22Reset re-cools a source between timed rounds: it drops the source's
// knowledge and re-warms it with Query 1 (untimed). Without the reset the
// first completion makes Query 4 fully answerable and every later round
// would answer from knowledge alone, timing nothing.
func e22Reset(ctx context.Context, c *shard.Cluster, source string) error {
	if err := c.Invalidate(source); err != nil {
		return err
	}
	_, err := c.Explore(ctx, source, workload.Query1(200))
	return err
}

// benchE22 is the EXPERIMENTS.md E22 scan: cluster-wide Query-4 completion
// latency, parallel scatter vs the sequential baseline, at 1/2/4 shards,
// plus the one-shard-down pass at 4 shards. The sequential baseline is a
// one-shard cluster over the same sources: one scatter worker visits every
// source in turn.
func benchE22(sources, rounds int, latency time.Duration) e22Report {
	ctx := context.Background()
	q4 := workload.Query4()
	rep := e22Report{
		Sources:   sources,
		LatencyMs: float64(latency) / float64(time.Millisecond),
		Rounds:    rounds,
	}

	timed := func(c *shard.Cluster) ([]time.Duration, error) {
		durs := make([]time.Duration, 0, rounds)
		for r := 0; r < rounds; r++ {
			for _, name := range c.Sources() {
				if err := e22Reset(ctx, c, name); err != nil {
					return nil, fmt.Errorf("reset %s: %w", name, err)
				}
			}
			start := time.Now()
			if _, err := c.ScatterComplete(ctx, q4); err != nil {
				return nil, err
			}
			durs = append(durs, time.Since(start))
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		return durs, nil
	}

	for _, n := range []int{1, 2, 4} {
		row := e22Row{Shards: n}
		for _, parallel := range []bool{true, false} {
			shards := n
			if !parallel {
				shards = 1
			}
			c, err := newE22Cluster(shards, sources, latency)
			if err != nil {
				fmt.Fprintln(os.Stderr, "e22:", err)
				os.Exit(1)
			}
			durs, err := timed(c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "e22:", err)
				os.Exit(1)
			}
			if parallel {
				row.ScatterP50Ms, row.ScatterP99Ms = pctMs(durs, 50), pctMs(durs, 99)
			} else {
				row.SeqP50Ms, row.SeqP99Ms = pctMs(durs, 50), pctMs(durs, 99)
			}
		}
		if row.ScatterP50Ms > 0 {
			row.SpeedupX = row.SeqP50Ms / row.ScatterP50Ms
		}
		fmt.Printf("e22 shards=%d: scatter p50 %.1fms p99 %.1fms, sequential p50 %.1fms p99 %.1fms (%.1fx)\n",
			n, row.ScatterP50Ms, row.ScatterP99Ms, row.SeqP50Ms, row.SeqP99Ms, row.SpeedupX)
		rep.Rows = append(rep.Rows, row)
	}

	// One-shard-down pass at 4 shards: warm everyone, kill the first
	// populated shard, and keep scattering. The down shard's sources must
	// come back flagged-degraded every round (the healthy ones exact), and
	// the outage must not stretch the healthy tail — fail-fast outage
	// errors plus the open breaker keep the dead shard cheap.
	c, err := newE22Cluster(4, sources, latency)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e22:", err)
		os.Exit(1)
	}
	for _, name := range c.Sources() {
		if err := e22Reset(ctx, c, name); err != nil {
			fmt.Fprintln(os.Stderr, "e22:", err)
			os.Exit(1)
		}
	}
	down := -1
	for _, g := range c.Groups() {
		if len(g.Sources()) > 0 {
			down = g.ID()
			break
		}
	}
	downG := c.Group(down)
	downG.SetDown(true)
	downSet := map[string]bool{}
	for _, name := range downG.Sources() {
		downSet[name] = true
	}
	out := e22Outage{Shards: 4, DownShard: down, Rounds: rounds, AllHealthyExact: true}
	durs := make([]time.Duration, 0, rounds)
	for r := 0; r < rounds; r++ {
		for _, name := range c.Sources() {
			if downSet[name] {
				continue // keep the dead shard's pre-outage knowledge
			}
			if err := e22Reset(ctx, c, name); err != nil {
				fmt.Fprintln(os.Stderr, "e22:", err)
				os.Exit(1)
			}
		}
		start := time.Now()
		sc, err := c.ScatterComplete(ctx, q4)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e22:", err)
			os.Exit(1)
		}
		durs = append(durs, time.Since(start))
		degraded := 0
		for i := range sc.Answers {
			a := &sc.Answers[i]
			switch {
			case a.Degraded() && downSet[a.Source]:
				degraded++
			case a.Degraded():
				out.AllHealthyExact = false
			}
		}
		out.DegradedPerRound = degraded
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	out.P99Ms = pctMs(durs, 99)
	fmt.Printf("e22 outage shards=4 down=%d: p99 %.1fms, %d degraded per round, healthy exact %v\n",
		down, out.P99Ms, out.DegradedPerRound, out.AllHealthyExact)
	rep.Outage = out
	return rep
}

// benchE23 is the EXPERIMENTS.md E23 soak: random two-shard instances, one
// whole shard down each round, a random linear query scattered cluster-wide.
// Each round contributes the scatter-wide certificate's completeness ratio
// and verdict; every non-empty certificate is re-verified the hard way — the
// certified sub-query evaluated over each reachable source's certain
// fragment must equal its evaluation over that source's world document.
func benchE23(rounds int) e23Report {
	ctx := context.Background()
	rep := e23Report{Shards: 2, SourcesPerRound: 3, Rounds: rounds, VerdictCounts: map[string]int{}}
	ratios := make([]float64, 0, rounds)
	var sum float64
	for i := 0; i < rounds; i++ {
		seed := int64(4000 + i)
		c := shard.New(shard.Config{Shards: 2})
		docs := map[string]tree.Tree{}
		for s := 0; s < rep.SourcesPerRound; s++ {
			name := fmt.Sprintf("s%d", s)
			doc := workload.RandomCatalog(3+(i+s)%4, seed*10+int64(s))
			src, err := webhouse.NewSource(name, workload.CatalogType(), doc)
			if err != nil {
				fmt.Fprintln(os.Stderr, "e23:", err)
				os.Exit(1)
			}
			if _, err := c.Register(src); err != nil {
				fmt.Fprintln(os.Stderr, "e23:", err)
				os.Exit(1)
			}
			docs[name] = doc
		}
		for name := range docs {
			if _, err := c.Explore(ctx, name, workload.Query1(int64(100+i%150))); err != nil {
				fmt.Fprintln(os.Stderr, "e23:", err)
				os.Exit(1)
			}
		}
		q := workload.RandomLinearQuery(workload.CatalogType(), seed, 2+i%3, 300)
		c.Group(i % 2).SetDown(true)

		sc, err := c.ScatterComplete(ctx, q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e23:", err)
			os.Exit(1)
		}
		cert := sc.Certificate
		rep.VerdictCounts[string(cert.Verdict)]++
		r := certify.CompletenessRatio(cert)
		ratios = append(ratios, r)
		sum += r
		for i := range sc.Answers {
			sa := &sc.Answers[i]
			if sa.Err == nil && sa.Answer.Certificate != nil && sa.Answer.Certificate.Verdict == certify.Full {
				rep.HealthyFullAnswers++
			}
		}
		if cert.AtomsCertified == 0 {
			continue
		}
		rep.NonEmptyCertificates++
		subq := certify.Subquery(q, cert.Paths)
		for _, sa := range sc.Answers {
			if sa.Err != nil {
				continue
			}
			g, err := c.Owner(sa.Source)
			if err != nil {
				fmt.Fprintln(os.Stderr, "e23:", err)
				os.Exit(1)
			}
			know, err := g.Webhouse().Knowledge(sa.Source)
			if err != nil {
				fmt.Fprintln(os.Stderr, "e23:", err)
				os.Exit(1)
			}
			if !subq.Eval(know.DataTree()).Equal(subq.Eval(docs[sa.Source])) {
				rep.Overclaims++
			}
		}
	}
	sort.Float64s(ratios)
	rep.RatioMin = pctF(ratios, 0)
	rep.RatioP50 = pctF(ratios, 50)
	rep.RatioP90 = pctF(ratios, 90)
	rep.RatioMax = pctF(ratios, 100)
	if len(ratios) > 0 {
		rep.RatioMean = sum / float64(len(ratios))
	}
	fmt.Printf("e23: %d rounds, ratio min/p50/p90/max %.2f/%.2f/%.2f/%.2f mean %.2f, verdicts %v, %d non-empty, %d overclaims\n",
		rounds, rep.RatioMin, rep.RatioP50, rep.RatioP90, rep.RatioMax, rep.RatioMean,
		rep.VerdictCounts, rep.NonEmptyCertificates, rep.Overclaims)
	return rep
}

// hardEmptyConj mirrors the E18/E21 benchmark fixture: 2^k certificates,
// none satisfiable, so emptiness must exhaust the space.
func hardEmptyConj(k int) *conj.T {
	t := conj.New()
	t.Sigma["r"] = ctype.LabelTarget("r")
	t.Sigma["c"] = ctype.LabelTarget("x")
	t.Cond["c"] = cond.EqInt(3)
	t.Sigma["a"] = ctype.LabelTarget("x")
	t.Cond["a"] = cond.EqInt(1)
	t.Sigma["b"] = ctype.LabelTarget("x")
	t.Cond["b"] = cond.EqInt(2)
	cnf := conj.CNF{ctype.Disj{ctype.SAtom{{Sym: "c", Mult: dtd.One}}}}
	for i := 0; i < k; i++ {
		cnf = append(cnf, ctype.Disj{
			ctype.SAtom{{Sym: "a", Mult: dtd.One}},
			ctype.SAtom{{Sym: "b", Mult: dtd.One}},
		})
	}
	t.Mu["r"] = cnf
	t.Roots = []conj.RootChoice{{"r"}}
	return t
}

// catalogQuery is Query 1 of the catalog source.
const catalogQuery = "catalog\n  product\n    name\n    price {< 200}\n    cat {= 1}\n      subcat\n"

// answerBody renders a ps-query answer request for source ("" = the
// catalog) as its JSON body.
func answerBody(source, query string) string {
	b, err := json.Marshal(serve.AnswerRequest{Source: source, Query: query})
	if err != nil {
		panic(err)
	}
	return string(b)
}

// post posts a JSON body and returns the status code (0 on a transport
// error) and the response bytes.
func post(client *http.Client, url, body string) (int, []byte) {
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

func msSince(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// pctF returns the p-th percentile of the sorted float sample.
func pctF(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)-1)*p + 50
	return sorted[i/100]
}

// pctMs returns the p-th percentile of the sorted sample in milliseconds.
func pctMs(sorted []time.Duration, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (len(sorted)-1)*p + 50
	return float64(sorted[i/100]) / float64(time.Millisecond)
}
