package main

import (
	"encoding/json"
	"fmt"

	"incxml/internal/extquery"
	"incxml/internal/query"
	"incxml/internal/reductions"
	"incxml/internal/serve"
	"incxml/internal/tree"
	"incxml/internal/workload"
	"incxml/internal/xmlio"
)

// request is one HTTP op: what to post, and what the oracle needs to check
// the answer. Exactly one of q, ext and red is set.
type request struct {
	route  string // serve route label, e.g. "explore", "scatter_local"
	path   string
	body   string
	source string // empty on scatter routes
	q      *query.Query
	ext    *extquery.Query
	red    *workload.ReductionSpec
}

// write reports whether the route belongs to the write group: the routes
// that contact a source and fold what it returns into the knowledge.
func (r *request) write() bool {
	switch r.route {
	case "explore", "complete", "scatter_complete":
		return true
	}
	return false
}

// verdict is the oracle's judgement of one answer.
type verdict struct {
	ok       bool   // 2xx and accepted by the oracle
	exact    bool   // not degraded, lossy or unknown where exactness is decidable
	mismatch string // why the oracle rejected the answer (empty if it did not)
	// localQueries are the Theorem 3.19 local-query counts of the
	// completions the answer carries.
	localQueries []int
}

// oracle checks served answers against the source documents the server
// was built over. It is shared by every HTTP workload; the kernels
// workload checks its verdicts against what each fixture is by
// construction (see kernels.go).
type oracle struct {
	worlds map[string]tree.Tree
}

// newOracle mirrors serve.New's fleet: the paper catalog, the Example 3.2
// blow-up world, and extra random catalogs cat00, cat01, ... seeded from
// the server seed.
func newOracle(extraSources int, serveSeed int64) *oracle {
	w := map[string]tree.Tree{
		"catalog": workload.PaperCatalog(),
		"blowup":  workload.BlowupWorld(),
	}
	for i := 0; i < extraSources; i++ {
		w[fmt.Sprintf("cat%02d", i)] = workload.RandomCatalog(4+i%5, serveSeed+int64(1000+i))
	}
	return &oracle{worlds: w}
}

// check judges one response. A transport error or non-2xx status is a
// failure but not a mismatch; an answer that contradicts the world is
// both.
func (o *oracle) check(r *request, status int, body []byte) verdict {
	if status < 200 || status > 299 {
		return verdict{}
	}
	var env serve.AnswerEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return reject("undecodable envelope: %v", err)
	}
	v := verdict{ok: true, exact: !env.Degraded}
	var err error
	switch r.route {
	case "explore":
		err = o.equal(r.source, *r.q, env.Answer)
	case "local":
		err = o.local(r.source, *r.q, &v, env.Answer, env.Local)
	case "complete":
		err = o.complete(r.source, *r.q, &v, env.Degraded, env.Answer, env.Completion)
	case "scatter_local", "scatter_complete":
		if env.Scatter == nil {
			return reject("scatter envelope without a scatter section")
		}
		for _, se := range env.Scatter.Answers {
			if se.Error != "" {
				// A hard per-source failure: the scatter answered, but not
				// for this source.
				v.ok = false
				continue
			}
			if se.Degraded {
				v.exact = false
			}
			if r.route == "scatter_local" {
				err = o.local(se.Source, *r.q, &v, se.Answer, se.Local)
			} else {
				err = o.complete(se.Source, *r.q, &v, se.Degraded, se.Answer, se.Completion)
			}
			if err != nil {
				err = fmt.Errorf("%s: %w", se.Source, err)
				break
			}
		}
	case "ext_query":
		err = o.extended(r, &v, env.Extension, env.Answer)
	case "ext_reduction":
		err = o.reduction(r, &v, env.Extension)
	default:
		err = fmt.Errorf("no oracle for route %q", r.route)
	}
	if err != nil {
		return reject("%s: %v", r.route, err)
	}
	return v
}

func reject(format string, args ...any) verdict {
	return verdict{mismatch: fmt.Sprintf(format, args...)}
}

// want evaluates q over the source's world document.
func (o *oracle) want(source string, q query.Query) (tree.Tree, error) {
	w, ok := o.worlds[source]
	if !ok {
		return tree.Tree{}, fmt.Errorf("no world for source %q", source)
	}
	return q.Eval(w), nil
}

func answerTree(p *serve.AnswerPayload) (tree.Tree, error) {
	if p == nil {
		return tree.Tree{}, fmt.Errorf("missing answer")
	}
	return xmlio.Unmarshal(p.XML)
}

// equal checks that an answer is q(world), node ids included.
func (o *oracle) equal(source string, q query.Query, p *serve.AnswerPayload) error {
	want, err := o.want(source, q)
	if err != nil {
		return err
	}
	got, err := answerTree(p)
	if err != nil {
		return err
	}
	if !got.Equal(want) {
		return fmt.Errorf("answer has %d nodes, q(world) has %d, and they differ", got.Size(), want.Size())
	}
	return nil
}

// local checks a Theorem 3.14 local answer: a fully answerable one must be
// q(world). Any unknown facet verdict, lossy fallback or exhausted budget
// makes it inexact (ps-query exactness is decidable).
func (o *oracle) local(source string, q query.Query, v *verdict, p *serve.AnswerPayload, f *serve.LocalFacets) error {
	if f == nil {
		return fmt.Errorf("local answer without facets")
	}
	if f.Lossy || f.BudgetExhausted || f.FullyV == "unknown" ||
		f.CertainlyNonEmptyV == "unknown" || f.PossiblyNonEmptyV == "unknown" {
		v.exact = false
	}
	if f.FullyV == "yes" {
		return o.equal(source, q, p)
	}
	return nil
}

// complete checks a Theorem 3.19 completion: exact unless degraded, and a
// degraded one must still be a prefix of q(world) (Theorem 3.14's sound
// lower approximation).
func (o *oracle) complete(source string, q query.Query, v *verdict, degraded bool, p *serve.AnswerPayload, c *serve.CompletionInfo) error {
	if c != nil {
		v.localQueries = append(v.localQueries, c.LocalQueries)
	}
	if !degraded {
		return o.equal(source, q, p)
	}
	v.exact = false
	want, err := o.want(source, q)
	if err != nil {
		return err
	}
	got, err := answerTree(p)
	if err != nil {
		return err
	}
	if !got.IsPrefixOf(want, got.IDs()) {
		return fmt.Errorf("degraded completion is not a prefix of q(world)")
	}
	return nil
}

// extended re-checks a Section 4 answer: classes whose exactness is
// undecidable (joins, negation) must answer unknown, and a definite yes
// must carry the answer q has over the world.
func (o *oracle) extended(r *request, v *verdict, ext *serve.ExtensionInfo, p *serve.AnswerPayload) error {
	if ext == nil || p == nil {
		return fmt.Errorf("extension answer without extension or answer section")
	}
	tractable := extquery.Class(ext.Class).Tractable()
	if !tractable && ext.ExactV != "unknown" {
		return fmt.Errorf("class %s is undecidable but answered %q", ext.Class, ext.ExactV)
	}
	if tractable && ext.ExactV == "unknown" {
		v.exact = false
	}
	if ext.ExactV == "yes" {
		w, ok := o.worlds[r.source]
		if !ok {
			return fmt.Errorf("no world for source %q", r.source)
		}
		if want := r.ext.Answer(w).Size(); p.Nodes != want {
			return fmt.Errorf("exact answer has %d nodes, the world gives %d", p.Nodes, want)
		}
	}
	return nil
}

// reduction re-checks a reduction decision against the brute-force
// Satisfiable/Valid deciders.
func (o *oracle) reduction(r *request, v *verdict, ext *serve.ExtensionInfo) error {
	if ext == nil {
		return fmt.Errorf("reduction answer without extension section")
	}
	if ext.Decision == "unknown" {
		v.exact = false
		return nil
	}
	if want := bruteForceDecision(r.red); ext.Decision != want {
		return fmt.Errorf("%s decision %q, brute force says %q", r.red.Kind, ext.Decision, want)
	}
	return nil
}

// bruteForceDecision evaluates a reduction probe with the exhaustive
// deciders.
func bruteForceDecision(spec *workload.ReductionSpec) string {
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
	yes := false
	switch spec.Kind {
	case "3sat":
		f := reductions.Formula{NumVars: spec.NumVars}
		for _, cl := range spec.Clauses {
			f.Clauses = append(f.Clauses, reductions.Clause(lits(cl)))
		}
		yes = f.Satisfiable()
	case "dnf":
		d := reductions.DNF{NumVars: spec.NumVars}
		for _, cl := range spec.Clauses {
			l := lits(cl)
			d.Disjuncts = append(d.Disjuncts, reductions.Disjunct{l[0], l[1], l[2]})
		}
		yes = d.Valid()
	default:
		return ""
	}
	if yes {
		return "yes"
	}
	return "no"
}
