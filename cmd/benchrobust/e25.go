package main

// EXPERIMENTS.md E25: the Section-4 extension zoo under realistic mixed
// traffic. The workload generator produces session-shaped arrivals —
// zipfian source popularity, explore → refine → complete acquisition,
// blowup refinement chains, extension probes with reduction riders, and
// twig-from-examples sessions — and this block drives the whole stream
// through the HTTP surface, recording per-class latency percentiles,
// status and verdict splits, and the soundness tally: every definite
// extension verdict and reduction decision is re-checked against the
// in-package exact oracles, and mismatches must stay zero.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"incxml/internal/extquery"
	"incxml/internal/reductions"
	"incxml/internal/serve"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

// e25ClassRow aggregates one query class of the mixed stream.
type e25ClassRow struct {
	Class    string         `json:"class"`
	Requests int            `json:"requests"`
	P50Ms    float64        `json:"p50Ms"`
	P99Ms    float64        `json:"p99Ms"`
	Statuses map[string]int `json:"statuses"`
	// Verdicts splits the extension exactness verdicts (extended ops) and
	// reduction decisions (reduction ops) this class produced; classic
	// ps-query ops leave it empty.
	Verdicts map[string]int `json:"verdicts,omitempty"`
}

// e25Report is the EXPERIMENTS.md E25 block.
type e25Report struct {
	Seed     int64   `json:"seed"`
	Sessions int     `json:"sessions"`
	Ops      int     `json:"ops"`
	ZipfS    float64 `json:"zipfS"`
	Mix      string  `json:"mix"`
	Sources  int     `json:"sources"`
	// KindCounts splits the stream by serving operation.
	KindCounts map[string]int `json:"kindCounts"`
	// SourceCounts shows the zipfian skew the generator produced
	// (session-opening ops only, blowup sessions excluded).
	SourceCounts map[string]int `json:"sourceCounts"`
	PerClass     []e25ClassRow  `json:"perClass"`
	// ExactMismatches counts definite served verdicts that contradicted
	// the in-package oracles — the never-wrong contract says zero.
	ExactMismatches int `json:"exactMismatches"`
	// TraceOut is the replayable trace file, when one was written.
	TraceOut string `json:"traceOut,omitempty"`
}

// benchE25 generates the mixed stream and drives it serially (sessions
// are ordered; later ops depend on earlier explores) against a full
// server with extra random-catalog sources.
func benchE25(sessions int, zipfS float64, mixSpec string, seed int64, traceOut string) e25Report {
	mix := workload.DefaultMix()
	if mixSpec != "" {
		var err error
		mix, err = workload.ParseMix(mixSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e25:", err)
			os.Exit(1)
		}
	}

	const extraSources = 4
	const serveSeed = 7
	s, err := serve.New(serve.Config{
		Timeout:      10 * time.Second,
		ExtraSources: extraSources,
		Seed:         serveSeed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e25:", err)
		os.Exit(1)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sources := []string{"catalog"}
	worlds := map[string]tree.Tree{"catalog": workload.PaperCatalog()}
	for i := 0; i < extraSources; i++ {
		name := fmt.Sprintf("cat%02d", i)
		sources = append(sources, name)
		// Mirror serve.New's registration so the oracle sees the same
		// world document the server holds.
		worlds[name] = workload.RandomCatalog(4+i%5, serveSeed+int64(1000+i))
	}

	cfg := workload.TrafficConfig{
		Seed:     seed,
		Sessions: sessions,
		Sources:  sources,
		ZipfS:    zipfS,
		Mix:      mix,
	}
	ops, err := workload.GenerateTraffic(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e25:", err)
		os.Exit(1)
	}

	rep := e25Report{
		Seed: seed, Sessions: sessions, Ops: len(ops), ZipfS: cfg.ZipfS,
		Mix: mix.String(), Sources: len(sources),
		KindCounts: map[string]int{}, SourceCounts: map[string]int{},
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e25:", err)
			os.Exit(1)
		}
		if err := workload.WriteTrace(f, cfg, ops); err != nil {
			fmt.Fprintln(os.Stderr, "e25:", err)
			os.Exit(1)
		}
		f.Close()
		rep.TraceOut = traceOut
	}

	type sample struct {
		dur     time.Duration
		status  int
		verdict string
	}
	byClass := map[workload.QueryClass][]sample{}
	client := ts.Client()
	for _, op := range ops {
		path, body, err := serve.RequestForOp(op)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e25:", err)
			os.Exit(1)
		}
		rep.KindCounts[string(op.Kind)]++
		if op.Step == 0 && op.Class != workload.TrafficBlowup {
			rep.SourceCounts[op.Source]++
		}
		start := time.Now()
		status, respBody := post(client, ts.URL+path, body)
		dur := time.Since(start)

		smp := sample{dur: dur, status: status}
		if status == http.StatusOK {
			switch op.Kind {
			case workload.OpExtended:
				class, exactV, nodes := extEnvelopeFields(respBody)
				smp.verdict = exactV
				if !extquery.Class(class).Tractable() && exactV != "unknown" {
					rep.ExactMismatches++
				}
				if exactV == "yes" {
					if want := op.Ext.Answer(worlds[op.Source]).Size(); nodes != want {
						rep.ExactMismatches++
					}
				}
			case workload.OpReduction:
				decision := extensionField(respBody, "decision")
				smp.verdict = decision
				if decision != "unknown" && decision != e25ReductionOracle(op.Red) {
					rep.ExactMismatches++
				}
			}
		}
		byClass[op.Class] = append(byClass[op.Class], smp)
	}

	for _, class := range workload.TrafficClasses() {
		samples := byClass[class]
		if len(samples) == 0 {
			continue
		}
		row := e25ClassRow{Class: string(class), Requests: len(samples),
			Statuses: map[string]int{}, Verdicts: map[string]int{}}
		durs := make([]time.Duration, 0, len(samples))
		for _, smp := range samples {
			durs = append(durs, smp.dur)
			row.Statuses[fmt.Sprint(smp.status)]++
			if smp.verdict != "" {
				row.Verdicts[smp.verdict]++
			}
		}
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		row.P50Ms, row.P99Ms = pctMs(durs, 50), pctMs(durs, 99)
		if len(row.Verdicts) == 0 {
			row.Verdicts = nil
		}
		rep.PerClass = append(rep.PerClass, row)
		fmt.Printf("e25 class=%s requests=%d p50=%.2fms p99=%.2fms statuses=%v verdicts=%v\n",
			class, row.Requests, row.P50Ms, row.P99Ms, row.Statuses, row.Verdicts)
	}
	fmt.Printf("e25: %d sessions, %d ops, mix %q, %d exact mismatches\n",
		sessions, len(ops), rep.Mix, rep.ExactMismatches)
	return rep
}

// extEnvelopeFields pulls the extension class, exactness verdict, and
// answer node count out of a v1 envelope.
func extEnvelopeFields(body []byte) (class, exactV string, nodes int) {
	var m map[string]any
	if json.Unmarshal(body, &m) != nil {
		return
	}
	if ext, ok := m["extension"].(map[string]any); ok {
		class, _ = ext["class"].(string)
		exactV, _ = ext["exactV"].(string)
	}
	if ans, ok := m["answer"].(map[string]any); ok {
		if f, ok := ans["nodes"].(float64); ok {
			nodes = int(f)
		}
	}
	return
}

// extensionField pulls one string field out of the envelope's extension
// section.
func extensionField(body []byte, field string) string {
	var m map[string]any
	if json.Unmarshal(body, &m) != nil {
		return ""
	}
	if ext, ok := m["extension"].(map[string]any); ok {
		s, _ := ext[field].(string)
		return s
	}
	return ""
}

// e25ReductionOracle evaluates a probe with the brute-force deciders.
func e25ReductionOracle(spec *workload.ReductionSpec) string {
	lits := func(cl []int) []reductions.Lit {
		out := make([]reductions.Lit, len(cl))
		for i, v := range cl {
			if v < 0 {
				out[i] = reductions.Lit{Var: -v, Neg: true}
			} else {
				out[i] = reductions.Lit{Var: v}
			}
		}
		return out
	}
	switch spec.Kind {
	case "3sat":
		f := reductions.Formula{NumVars: spec.NumVars}
		for _, cl := range spec.Clauses {
			f.Clauses = append(f.Clauses, reductions.Clause(lits(cl)))
		}
		if f.Satisfiable() {
			return "yes"
		}
		return "no"
	case "dnf":
		d := reductions.DNF{NumVars: spec.NumVars}
		for _, cl := range spec.Clauses {
			l := lits(cl)
			d.Disjuncts = append(d.Disjuncts, reductions.Disjunct{l[0], l[1], l[2]})
		}
		if d.Valid() {
			return "yes"
		}
		return "no"
	}
	return ""
}
