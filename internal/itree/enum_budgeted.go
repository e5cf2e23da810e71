package itree

import (
	"incxml/internal/budget"
	"incxml/internal/tree"
)

// EnumerateBudgeted is the anytime form of Enumerate: it materializes
// members of rep(T) within the bounds until the budget runs out, charging
// one step per produced variant and child combination. The returned slice
// is always a sound under-approximation of the bounded rep-set — every tree
// in it is a genuine member — and err is nil exactly when the enumeration
// completed (the result then equals Enumerate's). On exhaustion err matches
// budget.ErrExhausted and the partial results are still usable, e.g. as
// counterexample candidates. A nil budget enumerates exactly; Enumerate is
// that form.
func (it *T) EnumerateBudgeted(b Bounds, bud *budget.B) ([]tree.Tree, error) {
	e := newEnumerator(it, b)
	e.bud = bud

	seen := map[string]bool{}
	var result []tree.Tree
	nset := map[tree.NodeID]bool{}
	for id := range it.Nodes {
		nset[id] = true
	}
	if it.MayBeEmpty {
		result = append(result, tree.Empty())
		seen[CanonRelative(tree.Empty(), nset)] = true
	}
	for _, r := range it.Type.Roots {
		for _, root := range e.gen(r, 0) {
			t := tree.Tree{Root: root}
			if dupDataNode(t, it.Nodes) {
				continue
			}
			key := CanonRelative(t, nset)
			if !seen[key] {
				seen[key] = true
				result = append(result, t)
			}
			if len(result) >= b.MaxTrees {
				return result, recordEnum(bud.Err())
			}
		}
	}
	return result, recordEnum(bud.Err())
}

// RepSetBudgeted is the canonical-key set (relative to rel, or to T's own
// data nodes when rel is nil) of the members EnumerateBudgeted produced
// before exhaustion — a subset of the full bounded rep-set — plus the
// exhaustion error if the budget ran out. RepSet is the nil-budget form.
func (it *T) RepSetBudgeted(b Bounds, rel map[tree.NodeID]bool, bud *budget.B) (map[string]bool, error) {
	if rel == nil {
		rel = map[tree.NodeID]bool{}
		for id := range it.Nodes {
			rel[id] = true
		}
	}
	trees, err := it.EnumerateBudgeted(b, bud)
	out := map[string]bool{}
	for _, t := range trees {
		out[CanonRelative(t, rel)] = true
	}
	return out, err
}
