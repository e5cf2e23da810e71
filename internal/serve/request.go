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
	"time"

	"incxml/internal/query"
)

// AnswerRequest is the unified request body of every answer route. The four
// POST endpoints used to take a bare ps-query body plus a ?source=
// parameter; they now all decode this one shape, so a client builds one
// request value regardless of the consistency level it asks for.
//
// Bodies are sniffed: a body whose first non-space byte is '{' is decoded
// as strict JSON (unknown fields are a 400, not silently dropped); anything
// else is treated as the legacy raw ps-query text with the source taken
// from ?source=, so pre-v1 clients keep working unchanged.
type AnswerRequest struct {
	// Source names the target source; empty defaults to "catalog". Scatter
	// routes address the whole fleet and reject an explicit source.
	Source string `json:"source,omitempty"`
	// Query is the ps-query text (the same syntax the raw body took).
	Query string `json:"query"`
	// Budget, when positive, caps this request's solver step budget below
	// the server's configured allowance (it can tighten, never widen; see
	// budget.WithStepCap).
	Budget int64 `json:"budget,omitempty"`
	// Consistency optionally restates the consistency level the route
	// implies ("local" or "complete"); a mismatch is a 400. It lets a
	// client carry one request value through retry policies that switch
	// routes and fail loudly if the routing wire got crossed.
	Consistency string `json:"consistency,omitempty"`
}

// routeConsistency is the consistency level each answer route implies; a
// request naming a different one is rejected.
var routeConsistency = map[string]string{
	"explore":          "explore",
	"local":            "local",
	"complete":         "complete",
	"scatter_local":    "local",
	"scatter_complete": "complete",
}

// decodeAnswer negotiates the API version and decodes the unified
// AnswerRequest for a route. On any client error it writes the shared 400
// error envelope and returns ok=false; the caller just returns.
func (s *Server) decodeAnswer(w http.ResponseWriter, r *http.Request, route string) (req AnswerRequest, q query.Query, version int, ok bool) {
	version, err := apiVersion(r)
	if err != nil {
		// The requested version is unknown, so the error speaks current.
		writeError(w, EnvelopeVersion, http.StatusBadRequest, err.Error(), 0)
		return req, q, version, false
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, version, http.StatusBadRequest, err.Error(), 0)
		return req, q, version, false
	}
	scatter := route == "scatter_local" || route == "scatter_complete"
	if trimmed := bytes.TrimSpace(body); len(trimmed) > 0 && trimmed[0] == '{' {
		dec := json.NewDecoder(bytes.NewReader(trimmed))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, version, http.StatusBadRequest,
				fmt.Sprintf("bad request body: %v", err), 0)
			return req, q, version, false
		}
		if dec.More() {
			writeError(w, version, http.StatusBadRequest,
				"bad request body: trailing data after JSON object", 0)
			return req, q, version, false
		}
		if scatter && req.Source != "" {
			writeError(w, version, http.StatusBadRequest,
				"scatter routes address every source: drop the source field", 0)
			return req, q, version, false
		}
	} else {
		// Legacy body: the raw ps-query text.
		req.Query = string(body)
	}
	if req.Consistency != "" && req.Consistency != routeConsistency[route] {
		writeError(w, version, http.StatusBadRequest,
			fmt.Sprintf("consistency %q does not match route %s (%s)",
				req.Consistency, route, routeConsistency[route]), 0)
		return req, q, version, false
	}
	if req.Budget < 0 {
		writeError(w, version, http.StatusBadRequest, "budget must be non-negative", 0)
		return req, q, version, false
	}
	if !scatter && req.Source == "" {
		if src := r.URL.Query().Get("source"); src != "" {
			req.Source = src
		} else {
			req.Source = "catalog"
		}
	}
	q, err = query.Parse(req.Query)
	if err != nil {
		writeError(w, version, http.StatusBadRequest, fmt.Sprintf("bad query: %v", err), 0)
		return req, q, version, false
	}
	return req, q, version, true
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
		writeError(w, requestVersion(r), status, err.Error(), 0)
		return false
	}
	// Lift the deadline again: the connection's idle read after the body
	// must not fail while the handler still runs. An error here means the
	// connection is gone, so there is nothing to lift.
	_ = rc.SetReadDeadline(time.Time{})
	r.Body = io.NopCloser(bytes.NewReader(body))
	return true
}

// requestVersion is the envelope version r asks for, or the current one
// when it names none the server knows.
func requestVersion(r *http.Request) int {
	if v, err := apiVersion(r); err == nil {
		return v
	}
	return EnvelopeVersion
}

// errorEnvelope is the JSON error shape shared by every v1 failure path:
// request decoding (400), admission shedding (429/503) and handler errors
// (404/500/503/504). Version 0 keeps the plain-text error bodies.
type errorEnvelope struct {
	V      int    `json:"v"`
	Status int    `json:"status"`
	Error  string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on shed responses.
	RetryAfterSeconds int `json:"retryAfterSeconds,omitempty"`
}

// writeError writes a failure in the negotiated version: a JSON error
// envelope on v1, http.Error plain text on v0. Any Retry-After header must
// already be set by the caller; retryAfter only mirrors it into the body.
func writeError(w http.ResponseWriter, version, status int, msg string, retryAfter int) {
	if version == 0 {
		http.Error(w, msg, status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorEnvelope{
		V:                 EnvelopeVersion,
		Status:            status,
		Error:             msg,
		RetryAfterSeconds: retryAfter,
	})
}
