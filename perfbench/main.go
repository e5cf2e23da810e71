// Command perfbench is the repository's benchmark: one process that builds
// the incxml server in-process, drives one of four seeded workloads against
// it, checks every answer against ground-truth oracles, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the last
// line of standard output:
//
//	go run . -workload mixed -seed 1 -seconds 30 -trace 0
//
// The workloads and why each exists are documented on their plans in
// workloads.go, durable.go and kernels.go; README.md lists the metrics, the
// seeds and how to read the per-layer report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// DefaultSeed is the seed used when -seed is not given. ConfirmSeed is the
// second seed a performance claim must also hold on (it was not used while
// tuning the benchmark).
const (
	DefaultSeed = 1
	ConfirmSeed = 20011
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the run parameters shared by every workload.
type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	short    bool
	outDir   string
}

func main() {
	var o options
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", DefaultSeed, "workload seed (the same seed gives the same inputs)")
	flag.Float64Var(&seconds, "seconds", 30, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end ones")
	flag.BoolVar(&o.short, "short", false, "shrink set-up and preload for smoke tests")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans, reports and scratch data")
	flag.Parse()
	o.window = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	w, ok := workloads[o.workload]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.window <= 0 {
		fatalf("-seconds must be positive")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatalf("%v", err)
	}
	res, err := run(w, o)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures one workload. Untraced, it reports the end-to-end metrics
// of a full window. Traced, it makes two passes of half a window each from
// fresh set-ups of the same seed, the first untraced and the second traced,
// so the per-layer report can state the tracing overhead.
func run(w measureFunc, o options) (*result, error) {
	host := readHost(o.seed)
	if !o.trace {
		m, err := w(o, false)
		if err != nil {
			return nil, err
		}
		res := m.endToEnd()
		host.Steal = m.steal
		recordRun(o, host, res, m.figures(), nil)
		return res, nil
	}
	half := o
	half.window = o.window / 2
	plain, err := w(half, false)
	if err != nil {
		return nil, err
	}
	traced, err := w(half, true)
	if err != nil {
		return nil, err
	}
	res := traced.perLayer(plain)
	res.Correct = res.Correct && plain.correct()
	host.Steal = traced.steal
	report := traced.trace.report(o.workload, traced.p50(), plain.p50())
	fmt.Fprint(os.Stderr, report)
	recordRun(o, host, res, plain.figures(), traced.trace)
	if err := os.WriteFile(filepath.Join(o.outDir, runName(o)+".layers.txt"), []byte(report), 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// recordRun writes the run record — host, seed, every end-to-end figure
// (those without a bound included; from the untraced pass of a traced run)
// and the result — next to the spans, and echoes it on standard output
// ahead of the contract line.
func recordRun(o options, host hostInfo, res *result, figures map[string]metric, tr *tracer) {
	rec := struct {
		Workload string            `json:"workload"`
		Trace    bool              `json:"trace"`
		Seconds  float64           `json:"seconds"`
		Host     hostInfo          `json:"host"`
		EndToEnd map[string]metric `json:"endToEnd"`
		Result   *result           `json:"result"`
	}{o.workload, o.trace, o.window.Seconds(), host, figures, res}
	b, err := json.Marshal(rec)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
	base := filepath.Join(o.outDir, runName(o))
	if err := os.WriteFile(base+".json", append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	if tr != nil {
		if err := tr.writeJSONL(base + ".spans.jsonl"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
}

func runName(o options) string {
	return fmt.Sprintf("%s-seed%d-trace%v", o.workload, o.seed, o.trace)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
