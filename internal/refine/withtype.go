package refine

import (
	"maps"

	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/itree"
	"incxml/internal/tree"
)

// WithTreeType computes an incomplete tree T′ with
// rep(T′) = rep(t) ∩ rep(rho) (Theorem 3.5), in time polynomial in t and
// rho for the unambiguous trees produced by Refine.
//
// Every disjunct of every µ(a′) is rewritten to conform to the multiplicity
// atom µρ(base(a′)): disjuncts that contradict the type are eliminated, and
// items are tightened (or the disjunct is expanded into variants) so that
// the total number of children per base label respects the type's bounds.
// The expansion generalizes the paper's case analysis to atoms carrying
// several ⋆-specializations of one label (as produced by Lemma 3.2).
func WithTreeType(t *itree.T, rho *dtd.Type) *itree.T {
	// Every disjunction is rebuilt below, so only the flat parts of t are
	// copied.
	out := itree.New()
	maps.Copy(out.Nodes, t.Nodes)
	maps.Copy(out.Type.Cond, t.Type.Cond)
	maps.Copy(out.Type.Sigma, t.Type.Sigma)
	// rep(ρ) contains only nonempty documents, so MayBeEmpty stays false.
	ty := out.Type

	baseLabel := func(s ctype.Symbol) tree.Label {
		tg := ty.TargetFor(s)
		if tg.IsNode() {
			return out.Nodes[tg.Node].Label
		}
		return tg.Label
	}

	// Restrict roots to specializations of ρ's root labels.
	var roots []ctype.Symbol
	for _, r := range t.Type.Roots {
		if rho.IsRoot(baseLabel(r)) {
			roots = append(roots, r)
		}
	}
	ty.Roots = roots

	for s, disj := range t.Type.Mu {
		atom := rho.AtomFor(baseLabel(s))
		var rewritten ctype.Disj
		for _, alpha := range disj {
			rewritten = append(rewritten, conformAtom(alpha, atom, baseLabel)...)
		}
		ty.Mu[s] = rewritten
	}
	return out
}

// conformAtom rewrites one disjunct α to conform to the dtd atom, returning
// zero or more replacement disjuncts.
func conformAtom(alpha ctype.SAtom, atom dtd.Atom, baseLabel func(ctype.Symbol) tree.Label) []ctype.SAtom {
	// Group item indices by base label, labels in order of first
	// appearance in α so the output order is a function of the input.
	groups := map[tree.Label][]int{}
	var labels []tree.Label
	for i, item := range alpha {
		l := baseLabel(item.Sym)
		if _, ok := groups[l]; !ok {
			labels = append(labels, l)
		}
		groups[l] = append(groups[l], i)
	}
	// First elimination rule of the Theorem 3.5 proof: a label the type
	// requires (ω ∈ {1, +}) with no item at all in α kills the disjunct.
	for _, it := range atom {
		if lo, _ := it.Mult.Bounds(); lo >= 1 {
			if len(groups[it.Label]) == 0 {
				return nil
			}
		}
	}
	// A variant assigns every item of α its new multiplicity, with drop
	// (the zero Mult) meaning "remove the item". The variants of α are the
	// Cartesian product of the admissible per-label variants, which only
	// set the entries of their own label's items.
	const drop = dtd.Mult(0)
	results := [][]dtd.Mult{make([]dtd.Mult, len(alpha))}
	for _, l := range labels {
		idxs := groups[l]
		vs := labelVariants(alpha, idxs, atom, l)
		if len(vs) == 0 {
			return nil
		}
		next := make([][]dtd.Mult, 0, len(results)*len(vs))
		for _, base := range results {
			for k, v := range vs {
				merged := base
				if k < len(vs)-1 {
					merged = append([]dtd.Mult(nil), base...)
				}
				for j, i := range idxs {
					merged[i] = v[j]
				}
				next = append(next, merged)
			}
		}
		results = next
	}

	out := make([]ctype.SAtom, 0, len(results))
	for _, v := range results {
		na := make(ctype.SAtom, 0, len(alpha))
		for i, item := range alpha {
			if v[i] != drop {
				na = append(na, ctype.SItem{Sym: item.Sym, Mult: v[i]})
			}
		}
		out = append(out, na)
	}
	return out
}

// labelVariants returns the admissible multiplicity assignments for the
// items idxs of α that share base label l, each as one multiplicity per
// item in idxs order (the zero Mult drops the item).
func labelVariants(alpha ctype.SAtom, idxs []int, atom dtd.Atom, l tree.Label) [][]dtd.Mult {
	LO, HI := 0, 0
	if it, ok := atom.Find(l); ok {
		LO, HI = it.Mult.Bounds()
	}
	// Sum of guaranteed occurrences.
	sumLo := 0
	for _, i := range idxs {
		lo, _ := alpha[i].Mult.Bounds()
		sumLo += lo
	}
	if HI >= 0 && sumLo > HI {
		return nil // more guaranteed children than the type allows
	}
	unchanged := func() []dtd.Mult {
		v := make([]dtd.Mult, len(idxs))
		for j, i := range idxs {
			v[j] = alpha[i].Mult
		}
		return v
	}
	switch {
	case HI < 0 && LO == 0:
		// b⋆: unconstrained.
		return [][]dtd.Mult{unchanged()}
	case HI < 0 && LO == 1:
		// b+: at least one child overall.
		if sumLo >= 1 {
			return [][]dtd.Mult{unchanged()}
		}
		// Promote one optional item to mandatory, per variant.
		out := make([][]dtd.Mult, 0, len(idxs))
		for pick := range idxs {
			v := unchanged()
			switch v[pick] {
			case dtd.Star:
				v[pick] = dtd.Plus
			case dtd.Opt:
				v[pick] = dtd.One
			}
			out = append(out, v)
		}
		return out
	case HI == 0:
		// Label absent from the type: all items must be droppable.
		if sumLo > 0 {
			return nil
		}
		return [][]dtd.Mult{make([]dtd.Mult, len(idxs))}
	default:
		// HI == 1 (b1 or b?): at most one child overall.
		var out [][]dtd.Mult
		if LO == 0 && sumLo == 0 {
			// Zero children: drop everything.
			out = append(out, make([]dtd.Mult, len(idxs)))
		}
		// Exactly one child, hosted by item `pick`; all others dropped.
		for pick, i := range idxs {
			if _, hi := alpha[i].Mult.Bounds(); hi == 0 {
				continue
			}
			ok := true
			for j, other := range idxs {
				if lo, _ := alpha[other].Mult.Bounds(); j != pick && lo > 0 {
					ok = false
					break
				}
			}
			if ok {
				v := make([]dtd.Mult, len(idxs)) // all dropped
				v[pick] = dtd.One
				out = append(out, v)
			}
		}
		return out
	}
}
