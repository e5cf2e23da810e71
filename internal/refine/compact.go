package refine

import (
	"bytes"
	"encoding/binary"
	"slices"
	"strconv"

	"incxml/internal/cond"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/itree"
)

// Compact shrinks an incomplete tree without changing rep: it removes
// symbols with unsatisfiable effective conditions, trims useless symbols,
// and merges congruent symbols (same target, same condition, same
// multiplicity structure up to the merge). Compaction is what keeps the
// Refine chain polynomial for linear queries (Lemma 3.12): there, conditions
// at each level partition Q, so the product symbols with empty conditions
// die and the rest stay linear in the query-answer sequence.
//
// The result keeps only useful symbols, so its roots are all productive:
// rep(Compact(t)) = ∅ iff it has no root and may not be empty (see
// compactedEmpty).
func Compact(t *itree.T) *itree.T {
	// A symbol with an unsatisfiable effective condition is unproductive,
	// so trimming useless symbols drops it too.
	return mergeCongruent(t.TrimUseless())
}

// compactedEmpty reports whether rep(t) = ∅ for a tree Compact returned,
// reading it off the roots instead of rerunning the productivity fixpoint.
func compactedEmpty(t *itree.T) bool { return !t.MayBeEmpty && len(t.Type.Roots) == 0 }

// cItem is an atom item over symbol positions.
type cItem struct {
	sym  int32
	mult dtd.Mult
}

// congruence is the working set of mergeCongruent: the alphabet in sorted
// order, every disjunction translated to symbol positions, and the block
// each symbol currently belongs to.
type congruence struct {
	t     *itree.T
	syms  []ctype.Symbol
	pos   map[ctype.Symbol]int32
	atoms [][][]cItem // atoms[i] is µ(syms[i])
	block []int32
}

// mergeCongruent merges symbols that are indistinguishable: same σ-target,
// same effective condition, and the same multiplicity structure after
// rewriting through the merge (greatest fixpoint, as in automaton
// minimization via partition refinement). Each block is represented by its
// least symbol, and the survivors are renamed to short canonical names in
// the same pass: product symbols from Lemma 3.3 concatenate their factors'
// names, so over a chain of n Refine steps raw names grow to length 2ⁿ,
// and renaming after each step keeps the representation size proportional
// to the symbol count.
//
// The partition is refined on integer block ids: a symbol's key in a round
// is its block followed by its disjunction as a sorted multiset of atoms,
// each a sorted multiset of (block, multiplicity) pairs, encoded into one
// reused byte buffer.
func mergeCongruent(t *itree.T) *itree.T {
	c := newCongruence(t)
	c.refine()
	return c.emit()
}

func newCongruence(t *itree.T) *congruence {
	syms := t.Type.Symbols()
	c := &congruence{
		t:     t,
		syms:  syms,
		pos:   make(map[ctype.Symbol]int32, len(syms)),
		atoms: make([][][]cItem, len(syms)),
		block: make([]int32, len(syms)),
	}
	for i, s := range syms {
		c.pos[s] = int32(i)
	}
	for i, s := range syms {
		d := t.Type.DisjFor(s)
		as := make([][]cItem, len(d))
		for j, a := range d {
			items := make([]cItem, len(a))
			for k, item := range a {
				items[k] = cItem{c.pos[item.Sym], item.Mult}
			}
			as[j] = items
		}
		c.atoms[i] = as
	}
	return c
}

// refine computes the coarsest congruence: the initial split by target and
// effective condition, then rounds until the block count is stable (each
// round refines the last, so an equal count means an equal partition).
func (c *congruence) refine() {
	ids := map[string]int32{}
	var key []byte
	for i, s := range c.syms {
		key = appendTargetKey(key[:0], c.t, s)
		c.block[i] = blockID(ids, key)
	}
	blocks := len(ids)
	next := make([]int32, len(c.syms))
	var (
		atomBuf []byte
		spans   [][2]int
		pairs   []uint64
	)
	for {
		clear(ids)
		for i := range c.syms {
			atomBuf, spans = atomBuf[:0], spans[:0]
			for _, a := range c.atoms[i] {
				pairs = pairs[:0]
				for _, item := range a {
					pairs = append(pairs, uint64(c.block[item.sym])<<8|uint64(item.mult))
				}
				slices.Sort(pairs)
				start := len(atomBuf)
				atomBuf = binary.AppendUvarint(atomBuf, uint64(len(pairs)))
				for _, p := range pairs {
					atomBuf = binary.AppendUvarint(atomBuf, p)
				}
				spans = append(spans, [2]int{start, len(atomBuf)})
			}
			slices.SortFunc(spans, func(x, y [2]int) int {
				return bytes.Compare(atomBuf[x[0]:x[1]], atomBuf[y[0]:y[1]])
			})
			key = binary.AppendUvarint(key[:0], uint64(c.block[i]))
			key = binary.AppendUvarint(key, uint64(len(spans)))
			for _, sp := range spans {
				key = append(key, atomBuf[sp[0]:sp[1]]...)
			}
			next[i] = blockID(ids, key)
		}
		if len(ids) == blocks {
			return
		}
		blocks = len(ids)
		c.block, next = next, c.block
	}
}

// blockID returns the id of key, allocating the next one for a new key.
// The map lookup with a converted byte slice does not allocate; only a new
// key is copied into a string.
func blockID(ids map[string]int32, key []byte) int32 {
	if id, ok := ids[string(key)]; ok {
		return id
	}
	id := int32(len(ids))
	ids[string(key)] = id
	return id
}

// appendTargetKey appends the initial-split key of s: its σ-target and its
// effective condition. A node symbol's effective condition is cond(s)
// pinned to ν(n), which is either that single point or unsatisfiable.
func appendTargetKey(dst []byte, t *itree.T, s ctype.Symbol) []byte {
	tg := t.Type.TargetFor(s)
	c := t.Type.CondFor(s)
	if tg.IsNode() {
		dst = append(dst, '@')
		dst = append(dst, tg.Node...)
		if info, ok := t.Nodes[tg.Node]; ok && c.Holds(info.Value) {
			c = cond.Eq(info.Value)
		} else {
			c = cond.False()
		}
	} else {
		dst = append(dst, 'l')
		dst = append(dst, tg.Label...)
	}
	dst = append(dst, 0)
	return c.AppendKey(dst)
}

// emit builds the merged, renamed tree. Every block is represented by its
// least symbol. An atom whose merged items would need a multiplicity the
// four symbols cannot express keeps its original symbols instead (sound,
// merely less compact); those symbols are then emitted as well, with their
// own disjunctions rewritten.
func (c *congruence) emit() *itree.T {
	n := len(c.syms)
	rep := make([]int32, n) // block id → least member
	for i := range rep {
		rep[i] = -1
	}
	for i := n - 1; i >= 0; i-- {
		rep[c.block[i]] = int32(i)
	}
	rewrite := func(i int32) int32 { return rep[c.block[i]] }

	kept := make([]bool, n)
	var queue []int32
	keep := func(i int32) {
		if !kept[i] {
			kept[i] = true
			queue = append(queue, i)
		}
	}
	for i := int32(0); i < int32(n); i++ {
		if rewrite(i) == i {
			keep(i)
		}
	}
	disj := make([][][]cItem, n)
	var (
		seen = map[string]bool{}
		key  []byte
	)
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		clear(seen)
		nd := make([][]cItem, 0, len(c.atoms[i]))
		for _, a := range c.atoms[i] {
			na, ok := rewriteAtom(a, rewrite)
			if !ok {
				na = a
				for _, item := range a {
					keep(item.sym)
				}
			}
			key = key[:0]
			for _, item := range na {
				key = binary.AppendUvarint(key, uint64(item.sym))
				key = append(key, byte(item.mult))
			}
			if !seen[string(key)] {
				seen[string(key)] = true
				nd = append(nd, na)
			}
		}
		disj[i] = nd
	}

	// Short names are ranks in the sorted output alphabet; syms is sorted,
	// so ranks follow positions.
	names := make([]ctype.Symbol, n)
	ty := c.t.Type
	rank := 0
	for i, s := range c.syms {
		if !kept[i] {
			continue
		}
		if tg := ty.TargetFor(s); tg.IsNode() {
			names[i] = ctype.Symbol("n" + strconv.Itoa(rank) + "@" + string(tg.Node))
		} else {
			names[i] = ctype.Symbol("q" + strconv.Itoa(rank))
		}
		rank++
	}

	// The input is Compact's private intermediate, so its node map is
	// handed over rather than copied.
	out := &itree.T{Nodes: c.t.Nodes, Type: ctype.New(), MayBeEmpty: c.t.MayBeEmpty}
	seenRoot := make([]bool, n)
	for _, r := range ty.Roots {
		nr := rewrite(c.pos[r])
		if !seenRoot[nr] {
			seenRoot[nr] = true
			out.Type.Roots = append(out.Type.Roots, names[nr])
		}
	}
	for i, s := range c.syms {
		if !kept[i] {
			continue
		}
		name := names[i]
		out.Type.Sigma[name] = ty.TargetFor(s)
		out.Type.Cond[name] = ty.CondFor(s)
		nd := make(ctype.Disj, len(disj[i]))
		for j, a := range disj[i] {
			na := make(ctype.SAtom, len(a))
			for k, item := range a {
				na[k] = ctype.SItem{Sym: names[item.sym], Mult: item.mult}
			}
			nd[j] = na
		}
		out.Type.Mu[name] = nd
	}
	return out
}

// rewriteAtom maps item symbols through the merge, combining duplicates by
// adding occurrence bounds. It fails when a combined bound is not
// expressible as one of the four multiplicities.
func rewriteAtom(a []cItem, rewrite func(int32) int32) ([]cItem, bool) {
	type acc struct {
		sym    int32
		lo, hi int // hi < 0 means unbounded
	}
	sums := make([]acc, 0, len(a))
outer:
	for _, item := range a {
		s := rewrite(item.sym)
		lo, hi := item.mult.Bounds()
		for k := range sums {
			if b := &sums[k]; b.sym == s {
				b.lo += lo
				if b.hi < 0 || hi < 0 {
					b.hi = -1
				} else {
					b.hi += hi
				}
				continue outer
			}
		}
		sums = append(sums, acc{s, lo, hi})
	}
	out := make([]cItem, len(sums))
	for k, b := range sums {
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
		out[k] = cItem{b.sym, m}
	}
	return out, true
}
