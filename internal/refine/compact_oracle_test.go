package refine

import (
	"fmt"
	"sort"
	"strings"

	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/itree"
)

// This file keeps the original, string-keyed compaction as a reference
// oracle for the differential tests: every step materializes a
// re-conditioned copy of the type (effective conditions written into
// cond), and the congruence partition is keyed on rendered strings. It is
// slow and allocation-heavy by design — simple enough to trust — and stays
// out of the package API.

// oracleCompact is Compact as first written: drop unsatisfiable symbols,
// trim useless ones, merge congruent ones, rename.
func oracleCompact(t *itree.T) *itree.T {
	out := oracleDropUnsatisfiable(t)
	out = oracleTrimUseless(out)
	out = oracleMergeCongruent(out)
	return oracleShortNames(out)
}

// oracleEffectiveType copies the type with every condition replaced by the
// effective one (node symbols pinned to ν(n)).
func oracleEffectiveType(t *itree.T) *ctype.Type {
	out := t.Type.Clone()
	for _, s := range out.Symbols() {
		out.Cond[s] = t.EffectiveCond(s)
	}
	return out
}

// oracleEmpty is rep(T) = ∅ decided on the effective-condition copy.
func oracleEmpty(t *itree.T) bool { return !t.MayBeEmpty && oracleEffectiveType(t).Empty() }

// oracleTrimUseless trims useless symbols through the effective-condition
// copy, computing the useful set twice, then restores the original
// conditions.
func oracleTrimUseless(t *itree.T) *itree.T {
	eff := oracleEffectiveType(t)
	useful := eff.Useful(nil)
	out := itree.New()
	tmp := eff.TrimUseless()
	for s := range tmp.Sigma {
		if c, ok := t.Type.Cond[s]; ok {
			tmp.Cond[s] = c
		} else {
			delete(tmp.Cond, s)
		}
	}
	out.Type = tmp
	out.MayBeEmpty = t.MayBeEmpty
	referenced := map[string]bool{}
	for s := range tmp.Sigma {
		if !useful[s] {
			continue
		}
		if tg := tmp.TargetFor(s); tg.IsNode() {
			referenced[string(tg.Node)] = true
		}
	}
	for n, info := range t.Nodes {
		if referenced[string(n)] {
			out.Nodes[n] = info
		}
	}
	return out
}

func oracleShortNames(t *itree.T) *itree.T {
	syms := t.Type.Symbols()
	rename := make(map[ctype.Symbol]ctype.Symbol, len(syms))
	for i, s := range syms {
		if tg := t.Type.TargetFor(s); tg.IsNode() {
			rename[s] = ctype.Symbol(fmt.Sprintf("n%d@%s", i, tg.Node))
		} else {
			rename[s] = ctype.Symbol(fmt.Sprintf("q%d", i))
		}
	}
	out := t.Clone()
	out.Type = out.Type.Rename(func(s ctype.Symbol) ctype.Symbol { return rename[s] })
	return out
}

func oracleDropUnsatisfiable(t *itree.T) *itree.T {
	dead := map[ctype.Symbol]bool{}
	for _, s := range t.Type.Symbols() {
		if !t.EffectiveCond(s).Satisfiable() {
			dead[s] = true
		}
	}
	out := t.Clone()
	if len(dead) == 0 {
		return out
	}
	ty := out.Type
	var roots []ctype.Symbol
	for _, r := range ty.Roots {
		if !dead[r] {
			roots = append(roots, r)
		}
	}
	ty.Roots = roots
	for s, disj := range ty.Mu {
		if dead[s] {
			delete(ty.Mu, s)
			continue
		}
		var nd ctype.Disj
		for _, atom := range disj {
			var na ctype.SAtom
			ok := true
			for _, item := range atom {
				if !dead[item.Sym] {
					na = append(na, item)
					continue
				}
				if lo, _ := item.Mult.Bounds(); lo > 0 {
					ok = false
					break
				}
			}
			if ok {
				nd = append(nd, na)
			}
		}
		ty.Mu[s] = nd
	}
	for s := range dead {
		delete(ty.Sigma, s)
		delete(ty.Cond, s)
		delete(ty.Mu, s)
	}
	return out
}

// oracleMergeCongruent is the string-signature partition refinement: the
// initial split is keyed on rendered targets and conditions, every round
// re-keys each symbol on fmt.Sprintf'd block ids.
func oracleMergeCongruent(t *itree.T) *itree.T {
	syms := t.Type.Symbols()
	block := map[ctype.Symbol]int{}
	sigOf := map[string]int{}
	for _, s := range syms {
		sig := t.Type.TargetFor(s).String() + "|" + t.EffectiveCond(s).String()
		id, ok := sigOf[sig]
		if !ok {
			id = len(sigOf)
			sigOf[sig] = id
		}
		block[s] = id
	}
	for {
		next := map[ctype.Symbol]int{}
		nextSig := map[string]int{}
		for _, s := range syms {
			sig := fmt.Sprintf("%d|%s", block[s], oracleDisjSignature(t.Type.DisjFor(s), block))
			id, ok := nextSig[sig]
			if !ok {
				id = len(nextSig)
				nextSig[sig] = id
			}
			next[s] = id
		}
		if len(nextSig) == len(sigOf) {
			break
		}
		block = next
		sigOf = nextSig
	}
	repOf := map[int]ctype.Symbol{}
	for _, s := range syms {
		if cur, ok := repOf[block[s]]; !ok || s < cur {
			repOf[block[s]] = s
		}
	}
	rewrite := func(s ctype.Symbol) ctype.Symbol { return repOf[block[s]] }
	out := itree.New()
	out.MayBeEmpty = t.MayBeEmpty
	for n, info := range t.Nodes {
		out.Nodes[n] = info
	}
	ty := out.Type
	seenRoot := map[ctype.Symbol]bool{}
	for _, r := range t.Type.Roots {
		nr := rewrite(r)
		if !seenRoot[nr] {
			seenRoot[nr] = true
			ty.Roots = append(ty.Roots, nr)
		}
	}
	for _, s := range syms {
		rep := rewrite(s)
		if _, done := ty.Sigma[rep]; done {
			continue
		}
		ty.Sigma[rep] = t.Type.TargetFor(s)
		ty.Cond[rep] = t.Type.CondFor(s)
		var nd ctype.Disj
		seenAtom := map[string]bool{}
		for _, atom := range t.Type.DisjFor(s) {
			na, ok := oracleRewriteAtom(atom, rewrite)
			if !ok {
				na = atom.Clone()
			}
			key := na.String()
			if !seenAtom[key] {
				seenAtom[key] = true
				nd = append(nd, na)
			}
		}
		ty.Mu[rep] = nd
	}
	return out
}

func oracleDisjSignature(d ctype.Disj, block map[ctype.Symbol]int) string {
	atoms := make([]string, len(d))
	for i, a := range d {
		items := make([]string, len(a))
		for j, item := range a {
			items[j] = fmt.Sprintf("%d^%s", block[item.Sym], item.Mult.String())
		}
		sort.Strings(items)
		atoms[i] = strings.Join(items, ",")
	}
	sort.Strings(atoms)
	return strings.Join(atoms, " v ")
}

// oracleRewriteAtom maps item symbols through the merge, combining duplicates by
// adding occurrence bounds. It fails when a combined bound is not
// expressible as one of the four multiplicities.
func oracleRewriteAtom(a ctype.SAtom, rewrite func(ctype.Symbol) ctype.Symbol) (ctype.SAtom, bool) {
	type bounds struct{ lo, hi int } // hi < 0 means unbounded
	acc := map[ctype.Symbol]*bounds{}
	var order []ctype.Symbol
	for _, item := range a {
		s := rewrite(item.Sym)
		lo, hi := item.Mult.Bounds()
		if b, ok := acc[s]; ok {
			b.lo += lo
			if b.hi < 0 || hi < 0 {
				b.hi = -1
			} else {
				b.hi += hi
			}
		} else {
			acc[s] = &bounds{lo, hi}
			order = append(order, s)
		}
	}
	var out ctype.SAtom
	for _, s := range order {
		b := acc[s]
		var m dtd.Mult
		switch {
		case b.lo == 0 && b.hi == 1:
			m = dtd.Opt
		case b.lo == 1 && b.hi == 1:
			m = dtd.One
		case b.lo == 0 && b.hi < 0:
			m = dtd.Star
		case b.lo == 1 && b.hi < 0:
			m = dtd.Plus
		default:
			return nil, false
		}
		out = append(out, ctype.SItem{Sym: s, Mult: m})
	}
	return out, true
}
