package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"incxml/internal/budget"
	"incxml/internal/query"
)

// AnswerRequest is the request body of the five ps-query answer routes
// (/explore, /local, /complete, /scatter/local, /scatter/complete): one
// JSON shape, so a client builds one request value regardless of the
// consistency level it asks for. It is decoded as strict JSON: unknown
// fields and trailing data are a 400, not silently dropped.
type AnswerRequest struct {
	// Source names the target source; empty defaults to "catalog". Scatter
	// routes address the whole fleet and reject an explicit source.
	Source string `json:"source,omitempty"`
	// Query is the ps-query text.
	Query string `json:"query"`
	// Budget, when positive, caps this request's solver step budget below
	// the server's configured allowance (it can tighten, never widen; see
	// budget.WithStepCap).
	Budget int64 `json:"budget,omitempty"`
	// Consistency optionally restates the consistency level the route
	// implies ("explore", "local" or "complete"); a mismatch is a 400. It
	// lets a client carry one request value through retry policies that
	// switch routes and fail loudly if the routing wire got crossed.
	Consistency string `json:"consistency,omitempty"`
}

func (req AnswerRequest) shared() (string, int64, string) {
	return req.Source, req.Budget, req.Consistency
}

func (req AnswerRequest) parse() (query.Query, error) {
	q, err := query.Parse(req.Query)
	if err != nil {
		return q, fmt.Errorf("bad query: %w", err)
	}
	return q, nil
}

// routeConsistency is the consistency level each ps-query answer route
// implies; a request naming a different one is rejected.
var routeConsistency = map[string]string{
	"explore":          "explore",
	"local":            "local",
	"complete":         "complete",
	"scatter_local":    "local",
	"scatter_complete": "complete",
}

// request is an answer-request body as the pipeline sees it: the fields of
// the shared checks, and the parse into the route's query form Q.
type request[Q any] interface {
	// shared returns the named source, the step cap and the restated
	// consistency level; a body without such a field returns its zero.
	shared() (source string, budget int64, consistency string)
	// parse checks the body's own fields and builds its query.
	parse() (Q, error)
}

// answerFunc is what a route supplies to the pipeline: its cluster call
// and envelope projection for a checked request. source is the named
// source ("catalog" when the body names none) and empty on scatter routes.
type answerFunc[Q any] func(ctx context.Context, source string, q Q) (*AnswerEnvelope, error)

// pipeline is the one request pipeline of every answer route, run behind
// s's middleware stack (see wrap). It rejects the retired v0 inputs,
// decodes the body strictly into an R, runs the shared checks and R's own,
// caps the request's step budget, and encodes the envelope answer returns
// — or the error envelope of whichever step failed: 400 for the client's,
// fail's mapping for the cluster call's.
func pipeline[R request[Q], Q any](s *Server, route string, answer answerFunc[Q]) http.HandlerFunc {
	scatter := strings.HasPrefix(route, "scatter_")
	return s.wrap(route, func(ctx context.Context, w http.ResponseWriter, r *http.Request) {
		if err := checkWire(r); err != nil {
			writeError(w, http.StatusBadRequest, err.Error(), 0)
			return
		}
		var req R
		if !decodeJSON(w, r, &req) {
			return
		}
		source, steps, consistency := req.shared()
		var q Q
		var err error
		switch {
		case scatter && source != "":
			err = errors.New("scatter routes address every source: drop the source field")
		case consistency != "" && consistency != routeConsistency[route]:
			err = fmt.Errorf("consistency %q does not match route %s (%s)",
				consistency, route, routeConsistency[route])
		case steps < 0:
			err = errors.New("budget must be non-negative")
		default:
			q, err = req.parse()
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error(), 0)
			return
		}
		if !scatter && source == "" {
			source = "catalog"
		}
		env, err := answer(budget.WithStepCap(ctx, steps), source, q)
		if err != nil {
			fail(w, err)
			return
		}
		writeJSON(w, env)
	})
}

// checkWire rejects the retired v0 request forms, which would otherwise be
// misread: a version other than 1 in ?v= (or, absent that, the
// Accept-Version header), and a ?source= parameter in place of the body
// field.
func checkWire(r *http.Request) error {
	params := r.URL.Query()
	v := params.Get("v")
	if v == "" {
		v = strings.TrimPrefix(strings.TrimSpace(r.Header.Get("Accept-Version")), "v")
	}
	if v != "" && v != "1" {
		return fmt.Errorf("API version %q is not served: v0 is retired, send version 1 or none", v)
	}
	if params.Has("source") {
		return errors.New(`the ?source= parameter is retired: name the source in the JSON body's "source" field`)
	}
	return nil
}

// decodeJSON decodes the buffered request body (see readBody) into v as
// strict JSON: unknown fields, trailing data, and an empty or non-JSON
// body are 400s. On failure it writes the error envelope and returns false.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if _, tail := dec.Token(); tail != io.EOF {
			err = errors.New("trailing data after JSON object")
		}
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err), 0)
		return false
	}
	return true
}

// maxBody caps every request body.
const maxBody = 1 << 20

// readBody buffers r's body, capped at maxBody and bounded by ctx's
// deadline, and replaces r.Body with the buffered copy, so handlers decode
// from memory. conn is the server's own writer: the read deadline and the
// cap's connection close are set through it. A writer that cannot set
// deadlines (http.ErrNotSupported, e.g. a test recorder) leaves the read
// bounded by the cap alone; on a dead connection the read below fails
// anyway. On failure readBody writes the error to w (413 past the cap, 408
// when the deadline cut the body short, 400 otherwise) and returns false.
func readBody(ctx context.Context, conn, w http.ResponseWriter, r *http.Request) bool {
	rc := http.NewResponseController(conn)
	deadline, _ := ctx.Deadline()
	_ = rc.SetReadDeadline(deadline)
	body, err := io.ReadAll(http.MaxBytesReader(conn, r.Body, maxBody))
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			status = http.StatusRequestEntityTooLarge
		case errors.Is(err, os.ErrDeadlineExceeded):
			status = http.StatusRequestTimeout
		}
		writeError(w, status, err.Error(), 0)
		return false
	}
	// Lift the deadline again: the connection's idle read after the body
	// must not fail while the handler still runs. An error here means the
	// connection is gone, so there is nothing to lift.
	_ = rc.SetReadDeadline(time.Time{})
	r.Body = io.NopCloser(bytes.NewReader(body))
	return true
}

// errorEnvelope is the JSON error shape of every failure path: request
// decoding (400), body reading (408/413), admission shedding (429/503),
// handler errors (404/500/503/504) and recovered panics (500).
type errorEnvelope struct {
	V      int    `json:"v"`
	Status int    `json:"status"`
	Error  string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on shed responses.
	RetryAfterSeconds int `json:"retryAfterSeconds,omitempty"`
}

// writeError writes a failure as the JSON error envelope. Any Retry-After
// header must already be set by the caller; retryAfter only mirrors it
// into the body.
func writeError(w http.ResponseWriter, status int, msg string, retryAfter int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{
		V:                 EnvelopeVersion,
		Status:            status,
		Error:             msg,
		RetryAfterSeconds: retryAfter,
	})
}
