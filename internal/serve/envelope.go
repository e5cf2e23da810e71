package serve

import (
	"fmt"

	"incxml/internal/budget"
	"incxml/internal/certify"
	"incxml/internal/query"
	"incxml/internal/shard"
	"incxml/internal/tree"
	"incxml/internal/webhouse"
	"incxml/internal/xmlio"
)

// EnvelopeVersion is the answer-envelope schema version, the only one
// served. Version 0, the pre-envelope per-route shapes, is retired:
// requests asking for it are rejected with a 400 (see checkWire).
const EnvelopeVersion = 1

// AnswerEnvelope is the single versioned response shape of every answer
// route: /explore, /local, /complete, /scatter/local, /scatter/complete,
// /ext/query, /scatter/ext and /ext/reduction. Beyond the header fields,
// each route fills the sections its answer has. Every route but
// /ext/reduction, which decides a formula rather than a document, carries
// Completeness; /scatter/ext carries it per source only.
type AnswerEnvelope struct {
	// V is the schema version (EnvelopeVersion).
	V int `json:"v"`
	// Route names the answer route that produced the envelope: "explore",
	// "local", "complete", "scatter_local", "scatter_complete",
	// "ext_query", "scatter_ext" or "ext_reduction".
	Route string `json:"route"`
	// Source is the source the answer is about; empty on scatter envelopes
	// (the per-source breakdown lives in Scatter.Answers) and on
	// ext_reduction.
	Source string `json:"source,omitempty"`
	// Degraded reports anything less than an exact answer: a source outage
	// softened to the Theorem 3.14 approximation, a budget-truncated
	// evaluation, or any degraded shard in a scatter. Cause carries the
	// reason when one is known.
	Degraded bool   `json:"degraded"`
	Cause    string `json:"cause,omitempty"`
	// Answer is the gathered answer document; nil on scatter envelopes
	// (per-source answers live in Scatter.Answers).
	Answer *AnswerPayload `json:"answer,omitempty"`
	// Local carries the Theorem 3.14 facets of a local answer (and of a
	// degraded completion's backing local answer).
	Local *LocalFacets `json:"local,omitempty"`
	// Completion carries the Theorem 3.19 completion accounting.
	Completion *CompletionInfo `json:"completion,omitempty"`
	// Completeness is the completeness certificate (scatter-wide, on
	// scatter envelopes).
	Completeness *Completeness `json:"completeness,omitempty"`
	// Extension carries the Section 4 class and verdict on the extension
	// routes ("ext_query", "ext_reduction").
	Extension *ExtensionInfo `json:"extension,omitempty"`
	// Scatter is the per-source breakdown of a scatter answer.
	Scatter *ScatterInfo `json:"scatter,omitempty"`
}

// AnswerPayload is an answer document: its node count and XML rendering.
type AnswerPayload struct {
	Nodes int    `json:"nodes"`
	XML   string `json:"xml"`
}

// LocalFacets are the Theorem 3.14 / Corollary 3.18 facets of a local
// answer; the three *V fields are the three-valued verdicts behind the
// sound booleans ("yes"/"no"/"unknown").
type LocalFacets struct {
	Fully              bool   `json:"fully"`
	FullyV             string `json:"fullyV"`
	CertainlyNonEmpty  bool   `json:"certainlyNonEmpty"`
	CertainlyNonEmptyV string `json:"certainlyNonEmptyV"`
	PossiblyNonEmpty   bool   `json:"possiblyNonEmpty"`
	PossiblyNonEmptyV  string `json:"possiblyNonEmptyV"`
	Lossy              bool   `json:"lossy"`
	BudgetExhausted    bool   `json:"budgetExhausted"`
}

// CompletionInfo is the Theorem 3.19 completion accounting.
type CompletionInfo struct {
	// LocalQueries is the number of local queries the completion executed
	// (attempted, when the answer degraded).
	LocalQueries int `json:"localQueries"`
}

// Completeness is the wire form of a certify.Certificate: what part of the
// answer the caller can provably trust as complete.
type Completeness struct {
	// Ratio is certifiedAtoms/atoms in [0,1]; Verdict is "full", "partial"
	// or "unknown" (see certify.Verdict).
	Ratio   float64 `json:"ratio"`
	Verdict string  `json:"verdict"`
	// Subquery is the certified sub-query in the textual query syntax, and
	// Paths its pattern-node paths; both empty when nothing was certified.
	Subquery string   `json:"subquery,omitempty"`
	Paths    []string `json:"paths,omitempty"`
	// Atoms counts the full query's pattern nodes, CertifiedAtoms those of
	// the certified sub-query.
	Atoms          int `json:"atoms"`
	CertifiedAtoms int `json:"certifiedAtoms"`
	// CertainNodes is the size of the certified sub-query's answer over the
	// certain fragment; Fingerprint its content fingerprint in hex.
	CertainNodes int    `json:"certainNodes"`
	Fingerprint  string `json:"fingerprint,omitempty"`
	// CertainFacets / PossibleFacets count the Theorem 3.14 Cert/Poss match
	// facets the knowledge supports.
	CertainFacets  int `json:"certainFacets,omitempty"`
	PossibleFacets int `json:"possibleFacets,omitempty"`
	// Exhausted reports a certify-budget truncation (the certificate is
	// then a sound under-approximation).
	Exhausted bool `json:"exhausted,omitempty"`
	// PerSource maps source names to their own completeness ratios on
	// scatter-wide certificates.
	PerSource map[string]float64 `json:"perSource,omitempty"`
}

// ScatterInfo is the per-source breakdown of a scatter answer.
type ScatterInfo struct {
	// Shards is the cluster's shard count; CompleteShards/DegradedShards
	// the per-shard health classification of this scatter.
	Shards         int   `json:"shards"`
	CompleteShards []int `json:"completeShards"`
	DegradedShards []int `json:"degradedShards"`
	// Answers is one entry per registered source, sorted by source name.
	Answers []SourceEnvelope `json:"answers"`
}

// SourceEnvelope is one source's contribution to a scatter: a miniature
// answer envelope plus the shard that answered for it.
type SourceEnvelope struct {
	Source   string `json:"source"`
	Shard    int    `json:"shard"`
	Degraded bool   `json:"degraded"`
	// Error is a hard per-source failure; the sections below are then nil.
	Error        string          `json:"error,omitempty"`
	Cause        string          `json:"cause,omitempty"`
	Answer       *AnswerPayload  `json:"answer,omitempty"`
	Local        *LocalFacets    `json:"local,omitempty"`
	Completion   *CompletionInfo `json:"completion,omitempty"`
	Completeness *Completeness   `json:"completeness,omitempty"`
	// Extension carries the Section 4 class and verdict on scatter_ext
	// envelopes.
	Extension *ExtensionInfo `json:"extension,omitempty"`
}

// completenessOf projects a certificate into its wire form (nil-tolerant;
// a nil certificate certifies nothing).
func completenessOf(c *certify.Certificate) *Completeness {
	if c == nil {
		return &Completeness{Verdict: string(certify.Unknown)}
	}
	out := &Completeness{
		Ratio:          c.Ratio,
		Verdict:        string(c.Verdict),
		Subquery:       c.Subquery,
		Paths:          c.Paths,
		Atoms:          c.AtomsTotal,
		CertifiedAtoms: c.AtomsCertified,
		CertainNodes:   c.CertainNodes,
		CertainFacets:  c.CertainFacets,
		PossibleFacets: c.PossibleFacets,
		Exhausted:      c.Exhausted,
		PerSource:      c.PerSource,
	}
	if c.Fingerprint != 0 {
		out.Fingerprint = fmt.Sprintf("%016x", c.Fingerprint)
	}
	return out
}

// payloadOf renders an answer document into the envelope payload.
func payloadOf(a tree.Tree) (*AnswerPayload, error) {
	xml, err := xmlio.Marshal(a)
	if err != nil {
		return nil, err
	}
	return &AnswerPayload{Nodes: a.Size(), XML: xml}, nil
}

// facetsOf projects a local answer's facets.
func facetsOf(la *webhouse.LocalAnswer) *LocalFacets {
	return &LocalFacets{
		Fully:              la.Fully,
		FullyV:             la.FullyV.String(),
		CertainlyNonEmpty:  la.CertainlyNonEmpty,
		CertainlyNonEmptyV: la.CertainlyNonEmptyV.String(),
		PossiblyNonEmpty:   la.PossiblyNonEmpty,
		PossiblyNonEmptyV:  la.PossiblyNonEmptyV.String(),
		Lossy:              la.Lossy,
		BudgetExhausted:    la.BudgetExhausted,
	}
}

// extensionOf projects an extended answer's class and verdict.
func extensionOf(ea *webhouse.ExtendedAnswer) *ExtensionInfo {
	return &ExtensionInfo{
		Class:           ea.Class.String(),
		Tractable:       ea.Class.Tractable(),
		ExactV:          ea.ExactV.String(),
		Exact:           ea.ExactV == budget.Yes,
		BudgetExhausted: ea.BudgetExhausted,
	}
}

// The per-source projections: one source's answer onto the envelope
// sections. Single-source envelopes and scatter entries share them.

// explorePart projects an exploration of q. It returned the source's
// exact answer, so its certificate is full.
func explorePart(q query.Query) func(tree.Tree) (SourceEnvelope, error) {
	return func(a tree.Tree) (SourceEnvelope, error) {
		p, err := payloadOf(a)
		return SourceEnvelope{Answer: p, Completeness: completenessOf(certify.Exact(q, a))}, err
	}
}

func localPart(la *webhouse.LocalAnswer) (SourceEnvelope, error) {
	p, err := payloadOf(la.Exact)
	return SourceEnvelope{
		Degraded:     la.BudgetExhausted,
		Answer:       p,
		Local:        facetsOf(la),
		Completeness: completenessOf(la.Certificate),
	}, err
}

func completePart(ca *webhouse.CompleteAnswer) (SourceEnvelope, error) {
	p, err := payloadOf(ca.Answer)
	se := SourceEnvelope{
		Degraded:     ca.Degraded,
		Answer:       p,
		Completion:   &CompletionInfo{LocalQueries: ca.LocalQueries},
		Completeness: completenessOf(ca.Certificate),
	}
	if ca.Degraded && ca.Cause != nil {
		se.Cause = ca.Cause.Error()
	}
	if ca.Degraded && ca.Local != nil {
		se.Local = facetsOf(ca.Local)
	}
	return se, err
}

func extendedPart(ea *webhouse.ExtendedAnswer) (SourceEnvelope, error) {
	p, err := payloadOf(ea.Known)
	return SourceEnvelope{
		Degraded:     ea.BudgetExhausted,
		Answer:       p,
		Extension:    extensionOf(ea),
		Completeness: completenessOf(ea.Certificate),
	}, err
}

// single builds the envelope of a single-source route from the cluster
// call's answer a (or its error err, passed through) and its projection.
func single[T any](route, source string, a T, err error, part func(T) (SourceEnvelope, error)) (*AnswerEnvelope, error) {
	if err != nil {
		return nil, err
	}
	se, err := part(a)
	if err != nil {
		return nil, err
	}
	return &AnswerEnvelope{
		V:            EnvelopeVersion,
		Route:        route,
		Source:       source,
		Degraded:     se.Degraded,
		Cause:        se.Cause,
		Answer:       se.Answer,
		Local:        se.Local,
		Completion:   se.Completion,
		Completeness: se.Completeness,
		Extension:    se.Extension,
	}, nil
}

// scattered builds a scatter envelope from the cluster's scatter sc (or
// its error err, passed through), projecting each source's answer with
// part. A hard-failed source gets an error entry that certifies nothing.
func scattered[T any](route string, shards int, sc *shard.Scatter[T], err error, part func(T) (SourceEnvelope, error)) (*AnswerEnvelope, error) {
	if err != nil {
		return nil, err
	}
	info := &ScatterInfo{
		Shards:         shards,
		CompleteShards: sc.CompleteShards,
		DegradedShards: sc.DegradedShards,
		Answers:        make([]SourceEnvelope, 0, len(sc.Answers)),
	}
	for _, sa := range sc.Answers {
		var se SourceEnvelope
		if sa.Err != nil {
			se = SourceEnvelope{Error: sa.Err.Error(), Completeness: completenessOf(nil)}
		} else if se, err = part(sa.Answer); err != nil {
			return nil, err
		}
		se.Source, se.Shard, se.Degraded = sa.Source, sa.Shard, sa.Degraded()
		info.Answers = append(info.Answers, se)
	}
	env := &AnswerEnvelope{
		V:        EnvelopeVersion,
		Route:    route,
		Degraded: sc.Degraded(),
		Scatter:  info,
	}
	if sc.Certificate != nil {
		env.Completeness = completenessOf(sc.Certificate)
	}
	return env, nil
}
