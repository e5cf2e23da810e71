package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"strings"
	"sync"
	"time"

	"incxml/internal/answer"
	"incxml/internal/itree"
	"incxml/internal/serve"
)

// conns is the number of client connections every HTTP workload uses: at
// most nproc on the 2-CPU machines the benchmark was tuned on, so the
// client never needs more processors than the server has.
const conns = 2

// harness is a server under test, reached over loopback TCP.
type harness struct {
	srv   *serve.Server
	ts    *httptest.Server
	conns []*conn
	tr    *tracer // nil on an untraced run
}

// conn is one client connection. Each has its own transport, so it keeps
// one TCP connection and carries one request at a time.
type conn struct {
	client *http.Client
}

// startServer builds a server with serve.New and serves it over loopback.
// Process-wide decision caches are emptied first so every set-up starts
// from the same cache state. When tr is set, the server returns X-Trace
// headers and the seam wrappers are installed on every source and shard.
func startServer(cfg serve.Config, tr *tracer) (*harness, error) {
	answer.ResetCache()
	itree.ResetCache()
	cfg.Trace = tr != nil
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	h := &harness{srv: srv, tr: tr}
	if tr != nil {
		if err := h.installSeams(); err != nil {
			return nil, err
		}
	}
	h.ts = httptest.NewUnstartedServer(srv.Handler())
	h.ts.Config.ConnContext = func(ctx context.Context, c net.Conn) context.Context {
		return context.WithValue(ctx, connKey{}, c.RemoteAddr().String())
	}
	h.ts.Start()
	for i := 0; i < conns; i++ {
		h.conns = append(h.conns, &conn{client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
		}}})
	}
	return h, nil
}

// installSeams wraps each source's current client and each shard's
// journal (the durable store, or nothing on an in-memory server).
func (h *harness) installSeams() error {
	stores := h.srv.Cluster().Stores()
	for i, g := range h.srv.Cluster().Groups() {
		wh := g.Webhouse()
		for _, name := range wh.Sources() {
			repo, err := wh.Repo(name)
			if err != nil {
				return err
			}
			if err := wh.SetClient(name, tracedClient{inner: repo.Client(), t: h.tr}); err != nil {
				return err
			}
		}
		j := tracedJournal{t: h.tr}
		if i < len(stores) && stores[i] != nil {
			j.inner = stores[i]
		}
		wh.SetJournal(j)
	}
	return nil
}

// close stops the server and releases the durable stores without the
// final snapshot a drain would write.
func (h *harness) close() {
	for _, c := range h.conns {
		c.client.CloseIdleConnections()
	}
	h.ts.Close()
	if err := h.srv.Cluster().CloseStores(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: close stores:", err)
	}
}

// outcome is one issued request and what came back.
type outcome struct {
	req    *request
	status int // 0 on a transport error
	body   []byte
	open   bool          // issued in the open-loop phase
	lat    time.Duration // from due time
	done   time.Duration // since the start of its phase
}

// post sends one request and reads the whole response. Traced, it
// registers the request with the tracer under the connection's client
// address once the transport has picked the connection, and hands the
// tracer the response's X-Trace header and first-byte time.
func (h *harness) post(c *conn, r *request) (status int, body []byte) {
	ctx := context.Background()
	var start, firstByte time.Duration
	var addr string
	if h.tr != nil {
		start = h.tr.now()
		ctx = httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) {
				addr = info.Conn.LocalAddr().String()
				h.tr.begin(addr, r)
			},
			GotFirstResponseByte: func() { firstByte = h.tr.now() },
		})
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.ts.URL+r.path, strings.NewReader(r.body))
	if err != nil {
		return 0, nil
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	var header string
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status, header = resp.StatusCode, resp.Header.Get("X-Trace")
	}
	if h.tr != nil {
		end := h.tr.now()
		if firstByte == 0 {
			firstByte = end
		}
		h.tr.finish(addr, r.route, interval{start, end}, firstByte, header)
	}
	if err != nil {
		return 0, nil
	}
	return status, body
}

// unit is a run of requests one connection sends back to back: a session,
// or a single op.
type unit struct {
	due  time.Duration // open-loop units: offset into the open-loop phase
	reqs []*request
}

// stream hands units to the connections: open units on their schedule,
// closed units back to back.
type stream struct {
	open, closed []unit

	mu                   sync.Mutex
	nextOpen, nextClosed int
}

// take hands out the next open unit due before limit or, when closed is
// set, the next closed unit.
func (s *stream) take(closed bool, limit time.Duration) (unit, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if closed {
		if s.nextClosed >= len(s.closed) {
			return unit{}, false
		}
		s.nextClosed++
		return s.closed[s.nextClosed-1], true
	}
	if s.nextOpen >= len(s.open) || s.open[s.nextOpen].due >= limit {
		return unit{}, false
	}
	s.nextOpen++
	return s.open[s.nextOpen-1], true
}

// windowResult is what the timed window produced.
type windowResult struct {
	outcomes []outcome
	late     []time.Duration // generator lateness: wake-up time minus due time
	openCPU  time.Duration   // process CPU time over the open-loop phase
	capacity float64         // 2xx answers per second in the closed-loop phase
}

// drive runs the timed window: an open-loop phase of length open, in which
// each unit is sent when due and each op is timed from when it was due (a
// unit's first op from the unit's due time, later ops from when the
// previous one completed), then a closed-loop phase of length closed, in
// which the same connections send closed units back to back. The
// open-loop phase comes first so the state every scheduled op meets does
// not depend on how fast the closed loop ran.
func (h *harness) drive(s *stream, open, closed time.Duration) *windowResult {
	res := &windowResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var start time.Time
	worker := func(c *conn, isClosed bool) {
		defer wg.Done()
		var outs []outcome
		var late []time.Duration
		for !isClosed || time.Since(start) < closed {
			u, ok := s.take(isClosed, open)
			if !ok {
				break
			}
			dueAt := time.Now()
			if !isClosed {
				dueAt = start.Add(u.due)
				if wait := time.Until(dueAt); wait > 0 {
					time.Sleep(wait)
					late = append(late, time.Since(dueAt))
				}
			}
			for _, r := range u.reqs {
				status, body := h.post(c, r)
				done := time.Now()
				outs = append(outs, outcome{req: r, status: status, body: body, open: !isClosed,
					lat: done.Sub(dueAt), done: done.Sub(start)})
				dueAt = done
				if isClosed && done.Sub(start) >= closed {
					break
				}
			}
		}
		mu.Lock()
		res.outcomes = append(res.outcomes, outs...)
		res.late = append(res.late, late...)
		mu.Unlock()
	}
	for _, isClosed := range []bool{false, true} {
		cpu := processCPU()
		start = time.Now()
		for _, c := range h.conns {
			wg.Add(1)
			go worker(c, isClosed)
		}
		wg.Wait()
		if !isClosed {
			res.openCPU = processCPU() - cpu
		}
	}
	ok := 0
	for _, o := range res.outcomes {
		if !o.open && o.done < closed && okStatusCode(o.status) {
			ok++
		}
	}
	res.capacity = float64(ok) / closed.Seconds()
	return res
}

func okStatusCode(status int) bool { return status >= 200 && status <= 299 }
