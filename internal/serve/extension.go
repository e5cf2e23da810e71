package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"incxml/internal/budget"
	"incxml/internal/cond"
	"incxml/internal/extquery"
	"incxml/internal/pathre"
	"incxml/internal/reductions"
	"incxml/internal/tree"
	"incxml/internal/webhouse"
	"incxml/internal/xmlio"
)

// ExtNode is the wire form of one extended-query pattern node (see
// extquery.Node). Path is a path-expression in the pathre syntax
// ("a b", "a|b", "a*", "." for any label); Cond a selection condition in
// the cond syntax ("< 200", "= 1 | = 2"); both empty by default.
type ExtNode struct {
	Label    string     `json:"label,omitempty"`
	Path     string     `json:"path,omitempty"`
	Cond     string     `json:"cond,omitempty"`
	Var      string     `json:"var,omitempty"`
	Optional bool       `json:"optional,omitempty"`
	Negated  bool       `json:"negated,omitempty"`
	Extract  bool       `json:"extract,omitempty"`
	Children []*ExtNode `json:"children,omitempty"`
}

// ExtRequest is the request body of POST /ext/query and /scatter/ext: a
// Section 4 extended query as a JSON pattern tree plus the usual budget
// cap. Extension routes are v1-only — there is no legacy shape to keep.
type ExtRequest struct {
	// Source names the target source; empty defaults to "catalog". The
	// scatter route addresses the whole fleet and rejects a source.
	Source string `json:"source,omitempty"`
	// Pattern is the extended pattern tree.
	Pattern *ExtNode `json:"pattern"`
	// Diseq lists pairs of variables whose bound values must differ.
	Diseq [][2]string `json:"diseq,omitempty"`
	// Budget, when positive, caps this request's solver step budget below
	// the server's configured allowance.
	Budget int64 `json:"budget,omitempty"`
}

// Query converts the wire pattern into an extquery.Query, parsing path
// expressions and conditions.
func (req ExtRequest) Query() (extquery.Query, error) {
	if req.Pattern == nil {
		return extquery.Query{}, fmt.Errorf("missing pattern")
	}
	var conv func(n *ExtNode) (*extquery.Node, error)
	conv = func(n *ExtNode) (*extquery.Node, error) {
		out := &extquery.Node{
			Label:    tree.Label(n.Label),
			Var:      n.Var,
			Optional: n.Optional,
			Negated:  n.Negated,
			Extract:  n.Extract,
			Cond:     cond.True(),
		}
		if n.Cond != "" {
			c, err := cond.Parse(n.Cond)
			if err != nil {
				return nil, fmt.Errorf("node %q: bad cond: %w", n.Label, err)
			}
			out.Cond = c
		}
		if n.Path != "" {
			re, err := pathre.Parse(n.Path)
			if err != nil {
				return nil, fmt.Errorf("node %q: bad path: %w", n.Label, err)
			}
			out.Path = re
		}
		for _, c := range n.Children {
			cc, err := conv(c)
			if err != nil {
				return nil, err
			}
			out.Children = append(out.Children, cc)
		}
		return out, nil
	}
	root, err := conv(req.Pattern)
	if err != nil {
		return extquery.Query{}, err
	}
	return extquery.Query{Root: root, Diseq: req.Diseq}, nil
}

// ExtRequestOf renders an extquery.Query into its wire form — the inverse
// of ExtRequest.Query, for clients (and the traffic generator) built on
// the in-process query values.
func ExtRequestOf(source string, q extquery.Query, budget int64) ExtRequest {
	var conv func(n *extquery.Node) *ExtNode
	conv = func(n *extquery.Node) *ExtNode {
		if n == nil {
			return nil
		}
		out := &ExtNode{
			Label:    string(n.Label),
			Var:      n.Var,
			Optional: n.Optional,
			Negated:  n.Negated,
			Extract:  n.Extract,
		}
		if !n.Cond.IsTrue() {
			out.Cond = n.Cond.String()
		}
		if n.Path != nil {
			out.Path = n.Path.String()
		}
		for _, c := range n.Children {
			out.Children = append(out.Children, conv(c))
		}
		return out
	}
	return ExtRequest{Source: source, Pattern: conv(q.Root), Diseq: q.Diseq, Budget: budget}
}

// ReductionRequest is the request body of POST /ext/reduction: a CNF or
// DNF formula for the budgeted reductions-backed deciders (Theorems 3.6
// and 4.1). Clauses hold signed 1-based literals (-2 = ¬x₂); kind "dnf"
// requires exactly three literals per clause.
type ReductionRequest struct {
	// Kind selects the decider: "3sat" (satisfiability) or "dnf"
	// (validity).
	Kind    string  `json:"kind"`
	NumVars int     `json:"numVars"`
	Clauses [][]int `json:"clauses"`
	// Budget, when positive, caps the decider's step budget below the
	// server's configured allowance.
	Budget int64 `json:"budget,omitempty"`
}

// ExtensionInfo is the envelope section of the extension routes: the
// Section 4 class the request fell into and the three-valued verdict.
type ExtensionInfo struct {
	// Class is the query's Section 4 fragment ("ps", "branching",
	// "pathre", "join", "negation") or the reduction kind ("3sat",
	// "dnf").
	Class string `json:"class"`
	// Tractable reports whether the class is inside the Section 4
	// tractability boundary; intractable classes always answer "unknown".
	Tractable bool `json:"tractable"`
	// ExactV is the exactness verdict of an extended answer ("yes" /
	// "unknown"; "no" is never reported), Exact its boolean shadow.
	ExactV string `json:"exactV,omitempty"`
	Exact  bool   `json:"exact,omitempty"`
	// Decision is the reduction decider's verdict ("yes"/"no"/"unknown").
	Decision string `json:"decision,omitempty"`
	// BudgetExhausted flags a degraded (budget-truncated) evaluation.
	BudgetExhausted bool `json:"budgetExhausted,omitempty"`
}

// maxVarsServed bounds served reduction instances: the deciders are
// deliberately brute-force (2^NumVars), so the ceiling keeps even an
// unbudgeted request's worst case around a million masks.
const maxVarsServed = 20

// decodeExt decodes an ExtRequest for an extension route: strict JSON
// only (no legacy text form), v1-only.
func (s *Server) decodeExt(w http.ResponseWriter, r *http.Request, scatter bool) (req ExtRequest, q extquery.Query, ok bool) {
	if !s.requireV1(w, r) {
		return req, q, false
	}
	if !decodeStrictJSON(w, r, &req) {
		return req, q, false
	}
	if scatter && req.Source != "" {
		writeError(w, EnvelopeVersion, http.StatusBadRequest,
			"scatter routes address every source: drop the source field", 0)
		return req, q, false
	}
	if req.Budget < 0 {
		writeError(w, EnvelopeVersion, http.StatusBadRequest, "budget must be non-negative", 0)
		return req, q, false
	}
	if !scatter && req.Source == "" {
		req.Source = "catalog"
	}
	q, err := req.Query()
	if err != nil {
		writeError(w, EnvelopeVersion, http.StatusBadRequest,
			fmt.Sprintf("bad extended query: %v", err), 0)
		return req, q, false
	}
	return req, q, true
}

// requireV1 rejects v0 requests on extension routes: these routes were
// born versioned, so there is no legacy shape to project onto.
func (s *Server) requireV1(w http.ResponseWriter, r *http.Request) bool {
	version, err := apiVersion(r)
	if err != nil {
		writeError(w, EnvelopeVersion, http.StatusBadRequest, err.Error(), 0)
		return false
	}
	if version != EnvelopeVersion {
		writeError(w, EnvelopeVersion, http.StatusBadRequest,
			"extension routes require API version 1", 0)
		return false
	}
	return true
}

// decodeStrictJSON decodes the buffered body (see readBody) as strict JSON
// (unknown fields and trailing data are 400s).
func decodeStrictJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, EnvelopeVersion, http.StatusBadRequest, err.Error(), 0)
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(bytes.TrimSpace(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, EnvelopeVersion, http.StatusBadRequest,
			fmt.Sprintf("bad request body: %v", err), 0)
		return false
	}
	if dec.More() {
		writeError(w, EnvelopeVersion, http.StatusBadRequest,
			"bad request body: trailing data after JSON object", 0)
		return false
	}
	return true
}

// extensionOf projects an extended answer's class and verdict into the
// envelope section.
func extensionOf(ea *webhouse.ExtendedAnswer) *ExtensionInfo {
	return &ExtensionInfo{
		Class:           ea.Class.String(),
		Tractable:       ea.Class.Tractable(),
		ExactV:          ea.ExactV.String(),
		Exact:           ea.Exact,
		BudgetExhausted: ea.BudgetExhausted,
	}
}

// envelopeExt builds the /ext/query envelope.
func envelopeExt(source string, ea *webhouse.ExtendedAnswer) (*AnswerEnvelope, error) {
	xml, err := xmlio.Marshal(ea.Known)
	if err != nil {
		return nil, err
	}
	return &AnswerEnvelope{
		V:            EnvelopeVersion,
		Route:        "ext_query",
		Source:       source,
		Degraded:     ea.BudgetExhausted,
		Answer:       payloadOf(ea.Known, xml),
		Extension:    extensionOf(ea),
		Completeness: completenessOf(ea.Certificate),
	}, nil
}

// handleExtQuery answers a Section 4 extended query from one source's
// local knowledge, with the three-valued exactness verdict and — when
// Corollary 3.15 applied through a covering ps-query — a completeness
// certificate.
func (s *Server) handleExtQuery(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	req, q, ok := s.decodeExt(w, r, false)
	if !ok {
		return
	}
	ctx = budget.WithStepCap(ctx, req.Budget)
	ea, err := s.cluster.AnswerExtended(ctx, req.Source, q)
	if err != nil {
		fail(w, EnvelopeVersion, err)
		return
	}
	env, err := envelopeExt(req.Source, ea)
	if err != nil {
		fail(w, EnvelopeVersion, err)
		return
	}
	writeAnswer(w, EnvelopeVersion, env)
}

// handleScatterExt answers an extended query on every registered source,
// fanned out per shard; budget exhaustion degrades the affected shard,
// mirroring /scatter/local.
func (s *Server) handleScatterExt(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	req, q, ok := s.decodeExt(w, r, true)
	if !ok {
		return
	}
	ctx = budget.WithStepCap(ctx, req.Budget)
	sc, err := s.cluster.ScatterExtended(ctx, q)
	if err != nil {
		fail(w, EnvelopeVersion, err)
		return
	}
	info := &ScatterInfo{
		Shards:         s.cluster.Shards(),
		CompleteShards: sc.CompleteShards,
		DegradedShards: sc.DegradedShards,
		Answers:        make([]SourceEnvelope, 0, len(sc.Answers)),
	}
	for _, ea := range sc.Answers {
		se := SourceEnvelope{Source: ea.Source, Shard: ea.Shard, Degraded: ea.Degraded()}
		if ea.Err != nil {
			se.Error = ea.Err.Error()
			se.Completeness = completenessOf(nil)
		} else {
			xml, err := xmlio.Marshal(ea.Ext.Known)
			if err != nil {
				fail(w, EnvelopeVersion, err)
				return
			}
			se.Answer = payloadOf(ea.Ext.Known, xml)
			se.Extension = extensionOf(ea.Ext)
			se.Completeness = completenessOf(ea.Ext.Certificate)
		}
		info.Answers = append(info.Answers, se)
	}
	writeAnswer(w, EnvelopeVersion, &AnswerEnvelope{
		V:        EnvelopeVersion,
		Route:    "scatter_ext",
		Degraded: sc.Degraded(),
		Scatter:  info,
	})
}

// handleExtReduction runs a budgeted reductions-backed decider: 3-SAT
// satisfiability (Theorem 3.6) or DNF validity (Theorem 4.1). The verdict
// is three-valued: a definite answer is always the brute-force oracle's,
// "unknown" means the budget ran out first.
func (s *Server) handleExtReduction(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	if !s.requireV1(w, r) {
		return
	}
	var req ReductionRequest
	if !decodeStrictJSON(w, r, &req) {
		return
	}
	if req.Kind != "3sat" && req.Kind != "dnf" {
		writeError(w, EnvelopeVersion, http.StatusBadRequest,
			fmt.Sprintf("unknown reduction kind %q (supported: 3sat, dnf)", req.Kind), 0)
		return
	}
	if req.NumVars < 1 || req.NumVars > maxVarsServed {
		writeError(w, EnvelopeVersion, http.StatusBadRequest,
			fmt.Sprintf("numVars must be in [1, %d]", maxVarsServed), 0)
		return
	}
	if req.Budget < 0 {
		writeError(w, EnvelopeVersion, http.StatusBadRequest, "budget must be non-negative", 0)
		return
	}
	lits := func(raw []int) ([]reductions.Lit, error) {
		out := make([]reductions.Lit, 0, len(raw))
		for _, v := range raw {
			l := reductions.Lit{Var: v, Neg: v < 0}
			if v < 0 {
				l.Var = -v
			}
			if l.Var < 1 || l.Var > req.NumVars {
				return nil, fmt.Errorf("literal %d out of range", v)
			}
			out = append(out, l)
		}
		return out, nil
	}
	ctx = budget.WithStepCap(ctx, req.Budget)
	bud := budget.New(ctx, s.effectiveReductionSteps(ctx))
	var verdict budget.Tri
	switch req.Kind {
	case "3sat":
		f := reductions.Formula{NumVars: req.NumVars}
		for _, c := range req.Clauses {
			ls, err := lits(c)
			if err != nil {
				writeError(w, EnvelopeVersion, http.StatusBadRequest, err.Error(), 0)
				return
			}
			f.Clauses = append(f.Clauses, ls)
		}
		verdict, _ = f.SatisfiableBudgeted(bud)
	case "dnf":
		d := reductions.DNF{NumVars: req.NumVars}
		for i, c := range req.Clauses {
			if len(c) != 3 {
				writeError(w, EnvelopeVersion, http.StatusBadRequest,
					fmt.Sprintf("dnf disjunct %d must have exactly 3 literals", i), 0)
				return
			}
			ls, err := lits(c)
			if err != nil {
				writeError(w, EnvelopeVersion, http.StatusBadRequest, err.Error(), 0)
				return
			}
			d.Disjuncts = append(d.Disjuncts, reductions.Disjunct{ls[0], ls[1], ls[2]})
		}
		verdict, _ = d.ValidBudgeted(bud)
	}
	if bud.ExhaustedCause() == budget.CauseDeadline {
		fail(w, EnvelopeVersion, bud.Err())
		return
	}
	s.reductionVerdicts.With(req.Kind, verdict.String()).Inc()
	writeAnswer(w, EnvelopeVersion, &AnswerEnvelope{
		V:        EnvelopeVersion,
		Route:    "ext_reduction",
		Degraded: !verdict.Known(),
		Extension: &ExtensionInfo{
			Class:           req.Kind,
			Tractable:       true,
			Decision:        verdict.String(),
			BudgetExhausted: !verdict.Known(),
		},
	})
}

// effectiveReductionSteps folds the request step cap into the server's
// configured budget for the reduction deciders (which run outside the
// webhouse and so outside its budget plumbing), with the served-variables
// ceiling as the unlimited fallback.
func (s *Server) effectiveReductionSteps(ctx context.Context) int64 {
	steps := s.cfg.Budget
	if cap, ok := budget.StepCapFromContext(ctx); ok && cap > 0 && (steps <= 0 || cap < steps) {
		steps = cap
	}
	if steps <= 0 {
		steps = 64 << maxVarsServed
	}
	return steps
}
