package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"incxml/internal/faulty"
	"incxml/internal/mediator"
	"incxml/internal/query"
	"incxml/internal/tree"
	"incxml/internal/webhouse"
)

// Tracing records spans from the benchmark's own files only: the program
// is measured from outside. A span comes from one of three places.
//
//   - The root span of each request is the request as the client times it.
//   - Seam spans time calls through the program's public seams: a wrapper
//     installed with Webhouse.SetClient around each source's client (the
//     faulty layer, retries included) and one installed with
//     Webhouse.SetJournal around each shard's journal (the store layer).
//     They carry real start and end times. Client calls are tied to their
//     request through the connection context: each connection carries one
//     request at a time. Journal records carry no context; one is tied to
//     the in-flight request that posed the same query on the same source
//     through a write route, and only when exactly one such request is in
//     flight. A seam tied to no request, to several, or to one whose
//     interval does not hold it is counted as an orphan and dropped.
//   - Stage spans come from the X-Trace header the server returns when
//     Config.Trace is on: queue, source, fold, local, certify, extended.
//     The header gives durations, not start times, so stage spans are
//     placed: the queue stage so the stages end at the response header, a
//     source stage at its first client call, a fold stage so it ends where
//     its journal record ends, every other stage after the previous one. On
//     scatter routes the shards run in parallel and the header's order says
//     nothing about when a stage ran, so every stage after the queue is
//     placed at the end of the queue. Placed spans carry "placed": true.
//
// No interval is clamped: a span that does not lie inside its parent is
// counted as misplaced, so a wrong attribution or placement shows.
//
// Derived spans ("derived": true) are the benchmark's own inference where
// the header has no stage: an explore's fold, from the end of its source
// call to the start of its journal record (lock wait included); a scatter
// route's shard.scatter and an /ext/reduction's reductions span, from the
// end of the queue stage to the response header. They are reported under
// their own names and cover nothing: the unattributed time of a request is
// what the program's stages and the seams leave uncovered.

// span is one exported span. Times are milliseconds since the tracer's
// epoch.
type span struct {
	Req     int64   `json:"req"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 on the request span
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	Route   string  `json:"route,omitempty"`
	Start   float64 `json:"start_ms"`
	End     float64 `json:"end_ms"`
	Self    float64 `json:"self_ms"`
	Placed  bool    `json:"placed,omitempty"`
	Derived bool    `json:"derived,omitempty"`
	Steps   int64   `json:"steps,omitempty"`
}

// interval is a half-open time interval relative to the tracer's epoch.
type interval struct{ start, end time.Duration }

func (iv interval) dur() time.Duration { return iv.end - iv.start }

func (iv interval) holds(in interval) bool { return iv.start <= in.start && in.end <= iv.end }

// seam is one call timed at a public seam.
type seam struct {
	name string
	iv   interval
}

// inflight is a request between send and response on one connection.
type inflight struct {
	source string // empty on scatter routes
	query  string // canonical query text, for journal matching
	write  bool   // only write routes journal
	seams  []seam
}

// connKey is the context key under which the server's ConnContext hook
// stores the client's address of the connection.
type connKey struct{}

// tracer collects spans in memory until the run ends.
type tracer struct {
	epoch time.Time

	mu        sync.Mutex
	inflight  map[string]*inflight // by client address of the connection
	spans     []span
	nextReq   int64
	orphans   int     // seam calls tied to no request, to several, or to one that does not hold them
	misplaced int     // spans that do not lie inside their parent
	steps     []int64 // budget steps of each local stage
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), inflight: map[string]*inflight{}}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// reset drops what set-up traffic recorded, so the spans cover the timed
// window only.
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans, t.steps, t.orphans, t.misplaced = nil, nil, 0, 0
}

// begin registers the request about to be sent on the connection whose
// client address is addr.
func (t *tracer) begin(addr string, r *request) {
	in := &inflight{source: r.source, write: r.write()}
	if r.q != nil {
		in.query = r.q.String()
	}
	t.mu.Lock()
	t.inflight[addr] = in
	t.mu.Unlock()
}

// clientSeam records a source call made on behalf of the request in flight
// on the connection ctx belongs to.
func (t *tracer) clientSeam(ctx context.Context, iv interval) {
	addr, _ := ctx.Value(connKey{}).(string)
	t.mu.Lock()
	defer t.mu.Unlock()
	if in := t.inflight[addr]; in != nil {
		in.seams = append(in.seams, seam{"faulty.call", iv})
		return
	}
	t.orphans++
}

// journalSeam records a journal append, tied to the one in-flight request
// that posed the same query on the same source (or on every source, for a
// scatter route) through a write route. When no request or more than one
// matches, the record is an orphan: guessing could tie it to the wrong
// request.
func (t *tracer) journalSeam(ev webhouse.JournalEvent, iv interval) {
	if ev.Kind != webhouse.EventObserve {
		return // no route the benchmark drives invalidates, updates or restores
	}
	q := ev.Query.String()
	t.mu.Lock()
	defer t.mu.Unlock()
	var match *inflight
	for _, in := range t.inflight {
		if in.write && in.query == q && (in.source == "" || in.source == ev.Source) {
			if match != nil {
				t.orphans++
				return
			}
			match = in
		}
	}
	if match == nil {
		t.orphans++
		return
	}
	match.seams = append(match.seams, seam{"store.append", iv})
}

// finish turns a completed request into spans: the request span, its
// stage spans from the X-Trace header and its seam spans.
func (t *tracer) finish(addr, route string, root interval, firstByte time.Duration, header string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var seams []seam
	if in := t.inflight[addr]; in != nil {
		seams = in.seams
		delete(t.inflight, addr)
	}
	t.nextReq++
	spans, rejected := buildSpans(t.nextReq, route, root, firstByte, header, seams)
	t.orphans += rejected
	t.misplaced += len(misplaced(spans))
	for _, s := range spans {
		if s.Name == "answer.local" && s.Steps > 0 {
			t.steps = append(t.steps, s.Steps)
		}
	}
	t.spans = append(t.spans, spans...)
}

// call records one direct call into a module (the kernels workload) as a
// request span of its own layer.
func (t *tracer) call(name string, iv interval, steps int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextReq++
	t.spans = append(t.spans, span{
		Req: t.nextReq, Parent: -1, Name: name, Layer: layerOf(name),
		Start: ms(iv.start), End: ms(iv.end), Self: ms(iv.dur()), Steps: steps,
	})
}

// stage is one X-Trace stage: its name, duration and budget steps.
type stage struct {
	name  string
	d     time.Duration
	steps int64
}

// parseXTrace parses "route total=12.3ms queue=1µs local=3.9ms/44 ...".
func parseXTrace(h string) (total time.Duration, stages []stage, err error) {
	fields := strings.Fields(h)
	for _, f := range fields[min(1, len(fields)):] {
		name, val, ok := strings.Cut(f, "=")
		if !ok {
			return 0, nil, fmt.Errorf("bad X-Trace field %q", f)
		}
		var steps int64
		if d, s, ok := strings.Cut(val, "/"); ok {
			val = d
			if steps, err = strconv.ParseInt(s, 10, 64); err != nil {
				return 0, nil, fmt.Errorf("bad X-Trace steps in %q", f)
			}
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			return 0, nil, fmt.Errorf("bad X-Trace duration in %q", f)
		}
		if name == "total" {
			total = d
			continue
		}
		stages = append(stages, stage{name, d, steps})
	}
	return total, stages, nil
}

// stageSpan names the span an X-Trace stage becomes.
var stageSpan = map[string]string{
	"queue":    "serve.queue",
	"source":   "webhouse.source",
	"fold":     "refine.fold",
	"local":    "answer.local",
	"certify":  "certify",
	"extended": "extquery",
}

func stageName(s stage) string {
	if name := stageSpan[s.name]; name != "" {
		return name
	}
	return "serve." + s.name
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// spanKind says where a span's times come from.
type spanKind int

const (
	measured spanKind = iota // timed by the benchmark: the request and the seams
	placed                   // an X-Trace stage placed on the timeline
	derived                  // inferred by the benchmark; covers nothing
)

// spanTree assembles the spans of one request.
type spanTree struct {
	req   int64
	route string
	spans []span
	ivs   []interval
}

func (st *spanTree) add(parent int, name string, iv interval, kind spanKind, steps int64) int {
	id := len(st.spans)
	st.spans = append(st.spans, span{
		Req: st.req, ID: id, Parent: parent, Name: name, Layer: layerOf(name), Route: st.route,
		Start: ms(iv.start), End: ms(iv.end), Placed: kind == placed, Derived: kind == derived, Steps: steps,
	})
	st.ivs = append(st.ivs, iv)
	return id
}

// buildSpans lays one request's spans out; see the comment at the top of
// this file. Seams outside the request's interval are dropped and counted
// in rejected. Self time is a span minus the union of its non-derived
// children.
func buildSpans(req int64, route string, root interval, firstByte time.Duration, header string, seams []seam) (spans []span, rejected int) {
	st := &spanTree{req: req, route: route}
	rootID := st.add(-1, "serve.request", root, measured, 0)
	var calls, appends []seam
	for _, s := range seams {
		switch {
		case !root.holds(s.iv):
			rejected++
		case s.name == "faulty.call":
			calls = append(calls, s)
		default:
			appends = append(appends, s)
		}
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].iv.start < calls[j].iv.start })
	sort.Slice(appends, func(i, j int) bool { return appends[i].iv.start < appends[j].iv.start })
	total, stages, err := parseXTrace(header)
	if err != nil {
		stages = nil
	}
	cursor := firstByte - total
	if len(stages) > 0 && stages[0].name == "queue" {
		st.add(rootID, "serve.queue", interval{cursor, cursor + stages[0].d}, placed, 0)
		cursor += stages[0].d
		stages = stages[1:]
	}
	switch route {
	case "scatter_local", "scatter_complete":
		st.add(rootID, "shard.scatter", interval{cursor, firstByte}, derived, 0)
		for _, s := range stages {
			st.add(rootID, stageName(s), interval{cursor, cursor + s.d}, placed, s.steps)
		}
		stages = nil
	case "ext_reduction":
		st.add(rootID, "reductions", interval{cursor, firstByte}, derived, 0)
	}
	sourceEnd := time.Duration(-1)
	for i := 0; i < len(stages); i++ {
		s := stages[i]
		switch {
		case s.name == "certify" && i+1 < len(stages) && stages[i+1].name == "local" && stages[i+1].d >= s.d:
			// computeLocal's certify stage ends inside its local stage.
			l := stages[i+1]
			liv := interval{cursor, cursor + l.d}
			lid := st.add(rootID, "answer.local", liv, placed, l.steps)
			st.add(lid, "certify", interval{liv.end - s.d, liv.end}, placed, s.steps)
			cursor = liv.end
			i++
		case s.name == "source" && len(calls) > 0:
			// The stage starts before its first call; it holds the calls
			// that begin before it ends.
			iv := interval{calls[0].iv.start, calls[0].iv.start + s.d}
			id := st.add(rootID, "webhouse.source", iv, placed, s.steps)
			for len(calls) > 0 && calls[0].iv.start < iv.end {
				st.add(id, calls[0].name, calls[0].iv, measured, 0)
				sourceEnd = max(sourceEnd, calls[0].iv.end)
				calls = calls[1:]
			}
			cursor = iv.end
		case s.name == "fold" && len(appends) > 0:
			// The fold stage holds its journal record, which starts after
			// the fold itself.
			a := appends[0]
			appends = appends[1:]
			iv := interval{a.iv.end - s.d, a.iv.end}
			id := st.add(rootID, "refine.fold", iv, placed, s.steps)
			st.add(id, a.name, a.iv, measured, 0)
			cursor = iv.end
		default:
			st.add(rootID, stageName(s), interval{cursor, cursor + s.d}, placed, s.steps)
			cursor += s.d
		}
	}
	if route == "explore" && len(appends) > 0 && sourceEnd >= 0 {
		st.add(rootID, "refine.explore_fold", interval{sourceEnd, appends[0].iv.start}, derived, 0)
	}
	for _, s := range append(calls, appends...) {
		st.add(rootID, s.name, s.iv, measured, 0)
	}
	return finishTree(st), rejected
}

// finishTree fills in self times: a span minus the union of its
// non-derived children.
func finishTree(st *spanTree) []span {
	children := make([][]interval, len(st.spans))
	for i, s := range st.spans {
		if s.Parent >= 0 && !s.Derived {
			children[s.Parent] = append(children[s.Parent], st.ivs[i])
		}
	}
	for i := range st.spans {
		st.spans[i].Self = ms(st.ivs[i].dur() - union(st.ivs[i], children[i]))
	}
	return st.spans
}

// placeSlack is how far a placed or derived span may stick out of its
// parent: X-Trace durations are rounded to the microsecond.
const placeSlack = 0.005 // ms

// misplaced describes each span of one request that does not lie inside
// its parent, or ends before it starts.
func misplaced(spans []span) []string {
	var out []string
	for _, s := range spans {
		if s.End < s.Start {
			out = append(out, fmt.Sprintf("%s ends at %.3f before it starts at %.3f", s.Name, s.End, s.Start))
		}
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		slack := 0.0
		if s.Placed || s.Derived || p.Placed {
			slack = placeSlack
		}
		if s.Start < p.Start-slack || s.End > p.End+slack {
			out = append(out, fmt.Sprintf("%s [%.3f,%.3f] is outside its parent %s [%.3f,%.3f]",
				s.Name, s.Start, s.End, p.Name, p.Start, p.End))
		}
	}
	return out
}

// union is the length of the part of within that ivs cover.
func union(within interval, ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sorted := append([]interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	var covered time.Duration
	cur := interval{-1, -1}
	for _, iv := range sorted {
		iv.start = min(max(iv.start, within.start), within.end)
		iv.end = min(max(iv.end, iv.start), within.end)
		if iv.start > cur.end {
			covered += cur.dur()
			cur = iv
			continue
		}
		cur.end = max(cur.end, iv.end)
	}
	return covered + cur.dur()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// layerRow aggregates the spans of one layer or name.
type layerRow struct {
	count       int
	total, self float64 // ms
}

func (r *layerRow) mean() float64 { return ratio(r.total, float64(r.count)) }

// spanSums sums the spans by layer and by name, derived spans by name
// apart from the rest, and the request spans' self time (the part of each
// request no child covers) as unattributed.
type spanSums struct {
	layers, names, derived    map[string]*layerRow
	requestMs, unattributedMs float64
}

func (t *tracer) sums() spanSums {
	t.mu.Lock()
	defer t.mu.Unlock()
	sums := spanSums{layers: map[string]*layerRow{}, names: map[string]*layerRow{}, derived: map[string]*layerRow{}}
	add := func(m map[string]*layerRow, k string, s span) {
		r := m[k]
		if r == nil {
			r = &layerRow{}
			m[k] = r
		}
		r.count++
		r.total += s.End - s.Start
		r.self += s.Self
	}
	for _, s := range t.spans {
		if s.Derived {
			add(sums.derived, s.Name, s)
			continue
		}
		add(sums.layers, s.Layer, s)
		add(sums.names, s.Name, s)
		if s.Parent == -1 {
			sums.requestMs += s.End - s.Start
			if s.Name == "serve.request" {
				sums.unattributedMs += s.Self
			}
		}
	}
	return sums
}

// report renders the per-layer table: count, total and self time, and the
// self time's share of request time, per layer; the derived spans, which
// cover nothing; then the unattributed share, the tracing overhead on
// median latency, and the orphan seams and misplaced spans.
func (t *tracer) report(workload string, tracedP50, plainP50 float64) string {
	sums := t.sums()
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer report, workload %s\n", workload)
	fmt.Fprintf(&b, "%-20s %8s %12s %12s %8s\n", "layer", "count", "total_ms", "self_ms", "share")
	for _, n := range sortedKeys(sums.layers) {
		r := sums.layers[n]
		fmt.Fprintf(&b, "%-20s %8d %12.1f %12.1f %7.1f%%\n", n, r.count, r.total, r.self, 100*ratio(r.self, sums.requestMs))
	}
	if len(sums.derived) > 0 {
		fmt.Fprintf(&b, "derived spans (inferred by the benchmark; not counted as coverage)\n")
		for _, n := range sortedKeys(sums.derived) {
			r := sums.derived[n]
			fmt.Fprintf(&b, "%-20s %8d %12.1f %12s %7.1f%%\n", n, r.count, r.total, "-", 100*ratio(r.total, sums.requestMs))
		}
	}
	fmt.Fprintf(&b, "serve.unattributed_share %.3f (%.1f of %.1f ms request time)\n",
		ratio(sums.unattributedMs, sums.requestMs), sums.unattributedMs, sums.requestMs)
	fmt.Fprintf(&b, "tracing overhead on p50: %.3f ms traced vs %.3f ms untraced (%+.1f%%)\n",
		tracedP50, plainP50, 100*(ratio(tracedP50, plainP50)-1))
	t.mu.Lock()
	fmt.Fprintf(&b, "orphan seam calls (tied to no request, to several, or outside their request): %d\n", t.orphans)
	fmt.Fprintf(&b, "misplaced spans (outside their parent): %d\n", t.misplaced)
	t.mu.Unlock()
	return b.String()
}

func sortedKeys(m map[string]*layerRow) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeJSONL exports every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedClient times every call through a source's client. It forwards
// the retry client's counters and breaker state, which the webhouse reads
// through its current client.
type tracedClient struct {
	inner faulty.SourceClient
	t     *tracer
}

func (c tracedClient) Ask(ctx context.Context, q query.Query) (tree.Tree, error) {
	start := c.t.now()
	a, err := c.inner.Ask(ctx, q)
	c.t.clientSeam(ctx, interval{start, c.t.now()})
	return a, err
}

func (c tracedClient) AskLocal(ctx context.Context, lq mediator.LocalQuery) (tree.Tree, error) {
	start := c.t.now()
	a, err := c.inner.AskLocal(ctx, lq)
	c.t.clientSeam(ctx, interval{start, c.t.now()})
	return a, err
}

func (c tracedClient) Stats() faulty.ClientStats {
	if s, ok := c.inner.(interface{ Stats() faulty.ClientStats }); ok {
		return s.Stats()
	}
	return faulty.ClientStats{}
}

func (c tracedClient) BreakerOpen() bool {
	b, ok := c.inner.(interface{ BreakerOpen() bool })
	return ok && b.BreakerOpen()
}

// tracedJournal times every journal record. On an in-memory server inner
// is nil and only the timing is kept, which bounds an explore's fold.
type tracedJournal struct {
	inner webhouse.Journal
	t     *tracer
}

func (j tracedJournal) Record(ev webhouse.JournalEvent) {
	start := j.t.now()
	if j.inner != nil {
		j.inner.Record(ev)
	}
	j.t.journalSeam(ev, interval{start, j.t.now()})
}
