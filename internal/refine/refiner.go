package refine

import (
	"errors"
	"fmt"
	"sync"

	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/tree"
)

// Universal returns the incomplete tree representing every data tree over
// the given alphabet: one symbol per label, any root, all⋆ children. This is
// the starting point of the Refine chain before any query has been asked.
func Universal(sigma []tree.Label) *itree.T {
	out := itree.New()
	ty := out.Type
	all := make(ctype.SAtom, 0, len(sigma))
	for _, l := range sigma {
		all = append(all, ctype.SItem{Sym: anySym(l), Mult: dtd.Star})
	}
	for _, l := range sigma {
		s := anySym(l)
		ty.Sigma[s] = ctype.LabelTarget(l)
		ty.Mu[s] = ctype.Disj{all.Clone()}
		ty.Roots = append(ty.Roots, s)
	}
	return out
}

// Refine performs one step of Algorithm Refine (Theorem 3.4): given the
// current incomplete tree and a ps-query with its answer, it returns an
// unambiguous incomplete tree representing rep(t) ∩ q⁻¹(A).
// It is RefineBudgeted with no budget.
func Refine(t *itree.T, q query.Query, a tree.Tree, sigma []tree.Label) (*itree.T, error) {
	return RefineBudgeted(t, q, a, sigma, nil)
}

// Refiner incrementally maintains an incomplete tree over a sequence of
// ps-query/answer pairs against one source document.
type Refiner struct {
	sigma  []tree.Label
	source *dtd.Type
	cur    *itree.T
	steps  int
	// lossy records that some observation went through the lossy-shrinking
	// fallback (ObserveBudgeted): cur is then a rep-superset of the true
	// refinement.
	lossy bool

	// withType is WithTreeType(cur, source) when the last commit already
	// built it for its consistency check, nil otherwise. reach caches the
	// reachable tree Compact(withType) from the first Reachable call after
	// a commit until the next one; reachMu guards both against concurrent
	// readers.
	reachMu  sync.Mutex
	withType *itree.T
	reach    *itree.T
}

// NewRefiner starts a refinement chain. The source type may be nil if the
// source's DTD is unknown.
func NewRefiner(sigma []tree.Label, source *dtd.Type) *Refiner {
	return &Refiner{
		sigma:  append([]tree.Label(nil), sigma...),
		source: source,
		cur:    Universal(sigma),
	}
}

// ErrInconsistent reports that an observation contradicts the accumulated
// knowledge: no document satisfies all query-answer pairs (and the type)
// any more. This happens when the source changed between queries; the
// paper's remedy is to reinitialize the knowledge to the source type
// (Section 1), which the webhouse layer does on this error.
var ErrInconsistent = errors.New("refine: observation inconsistent with accumulated knowledge (source changed?)")

// Observe folds one ps-query/answer pair into the representation
// (one step of Algorithm Refine). It returns ErrInconsistent (wrapped) when
// the refined representation becomes empty; the previous state is kept so
// the caller can decide how to recover. It is ObserveBudgeted with no
// budget, which never takes the lossy fallback.
func (r *Refiner) Observe(q query.Query, a tree.Tree) error {
	_, err := r.ObserveBudgeted(q, a, nil, 0)
	return err
}

// compact applies the per-step compaction and reports whether the result
// represents no document at all. Compaction never changes rep; it is what
// keeps linear-query chains polynomial (Lemma 3.12) at a small constant
// per-step cost.
func (r *Refiner) compact(next *itree.T) (*itree.T, bool) {
	next = Compact(next)
	return next, compactedEmpty(next)
}

// checkSourceType returns WithTreeType(next, source), or ErrInconsistent
// when it is empty: emptiness can also be induced only in combination with
// the source type. It returns nil when no source type is known.
func (r *Refiner) checkSourceType(next *itree.T) (*itree.T, error) {
	if r.source == nil {
		return nil, nil
	}
	withType := WithTreeType(next, r.source)
	if withType.Empty() {
		return nil, fmt.Errorf("%w (answers conflict with the source type after %d observations)", ErrInconsistent, r.steps+1)
	}
	return withType, nil
}

// commit installs next as the current tree, keeping withType (nil when not
// built) for the reachable view and dropping the cached one.
func (r *Refiner) commit(next, withType *itree.T) {
	r.reachMu.Lock()
	r.cur, r.withType, r.reach = next, withType, nil
	r.reachMu.Unlock()
	r.steps++
}

// Tree returns the current incomplete tree (query information only, not yet
// intersected with the source type).
func (r *Refiner) Tree() *itree.T { return r.cur }

// Reachable returns the paper's "reachable" incomplete tree: the current
// refinement further intersected with the source tree type (Theorem 3.5).
// If no source type is known, it returns the current tree unchanged.
//
// The tree is computed once per commit, by the first call after it, and
// every later call until the next commit returns the same pointer. It is
// shared with every other caller: treat it as read-only. Concurrent calls
// are safe as long as no observation is folded at the same time.
func (r *Refiner) Reachable() *itree.T {
	if r.source == nil {
		return r.cur
	}
	r.reachMu.Lock()
	defer r.reachMu.Unlock()
	if r.reach == nil {
		if r.withType == nil {
			r.withType = WithTreeType(r.cur, r.source)
		}
		r.reach = Compact(r.withType)
	}
	return r.reach
}

// Steps returns the number of observations folded so far.
func (r *Refiner) Steps() int { return r.steps }

// Sigma returns the alphabet of the chain.
func (r *Refiner) Sigma() []tree.Label { return r.sigma }

// ObserveOn is a convenience that evaluates q on the full source document
// and observes the resulting answer; used by simulations where the true
// document is available.
func (r *Refiner) ObserveOn(doc tree.Tree, q query.Query) (tree.Tree, error) {
	a := q.Eval(doc)
	if err := r.Observe(q, a); err != nil {
		return tree.Tree{}, err
	}
	return a, nil
}
