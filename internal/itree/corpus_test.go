package itree

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"incxml/internal/budget"
	"incxml/internal/cond"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/rat"
	"incxml/internal/tree"
)

// randomITree builds a small random incomplete tree over labels a/b with a
// couple of data nodes, exercising node symbols, conditions and all four
// multiplicities.
func randomITree(rng *rand.Rand) *T {
	it := New()
	labels := []tree.Label{"a", "b"}
	conds := []cond.Cond{
		cond.True(), cond.Eq(rat.FromInt(1)), cond.Ne(rat.FromInt(1)),
		cond.Le(rat.FromInt(2)), cond.Ge(rat.FromInt(2)),
	}
	mults := []dtd.Mult{dtd.One, dtd.Opt, dtd.Plus, dtd.Star}
	nSyms := 2 + rng.Intn(3)
	syms := make([]ctype.Symbol, nSyms)
	for i := range syms {
		syms[i] = ctype.Symbol(fmt.Sprintf("s%d", i))
		it.Type.Sigma[syms[i]] = ctype.LabelTarget(labels[rng.Intn(len(labels))])
		it.Type.Cond[syms[i]] = conds[rng.Intn(len(conds))]
	}
	if rng.Intn(2) == 0 {
		id := tree.NodeID("n0")
		it.Nodes[id] = NodeInfo{Label: "a", Value: rat.FromInt(1)}
		ns := ctype.Symbol("ns0")
		it.Type.Sigma[ns] = ctype.NodeTarget(id)
		syms = append(syms, ns)
	}
	// Children only reference strictly higher-indexed symbols so the type is
	// well-founded (Witness and Enumerate recurse on children).
	for si, s := range syms {
		nAtoms := 1 + rng.Intn(2)
		var d ctype.Disj
		for i := 0; i < nAtoms; i++ {
			var a ctype.SAtom
			if si+1 < len(syms) {
				for j := 0; j < rng.Intn(3); j++ {
					child := syms[si+1+rng.Intn(len(syms)-si-1)]
					m := mults[rng.Intn(len(mults))]
					if it.Type.Sigma[child].IsNode() {
						m = dtd.One
					}
					a = append(a, ctype.SItem{Sym: child, Mult: m})
				}
			}
			d = append(d, a)
		}
		it.Type.Mu[s] = d
	}
	nRoots := 1 + rng.Intn(2)
	for i := 0; i < nRoots; i++ {
		it.Type.Roots = append(it.Type.Roots, syms[rng.Intn(len(syms))])
	}
	it.MayBeEmpty = rng.Intn(4) == 0
	return it
}

func smallBounds() Bounds {
	return Bounds{
		Values:    []rat.Rat{rat.FromInt(0), rat.FromInt(1), rat.FromInt(2), rat.FromInt(3)},
		MaxRepeat: 2,
		MaxDepth:  3,
		MaxTrees:  5000,
	}
}

// nonBinding is the budget set of the determinism checks: the nil budget
// (unbounded) and a budget too generous to bind.
func nonBinding() []*budget.B {
	return []*budget.B{nil, budget.New(context.Background(), 1<<30)}
}

// forCorpus runs check on Example 2.2 and 25 random incomplete trees.
func forCorpus(check func(name string, it *T)) {
	check("example22", example22())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 25; i++ {
		check(fmt.Sprintf("random-%d", i), randomITree(rng))
	}
}

// TestRepSetBudgetedMatchesRepSet: over the random corpus, the key loop
// (RepSetBudgeted) under no budget or a non-binding one yields the same
// bounded rep-set as RepSet.
func TestRepSetBudgetedMatchesRepSet(t *testing.T) {
	b := smallBounds()
	forCorpus(func(name string, it *T) {
		want := it.RepSet(b, nil)
		for _, bud := range nonBinding() {
			keys, err := it.RepSetBudgeted(b, nil, bud)
			if err != nil {
				t.Fatalf("%s: non-binding budget exhausted: %v", name, err)
			}
			if ok, diff := diffRepSets(want, keys); !ok {
				t.Errorf("%s: %s", name, diff)
			}
		}
	})
}

// TestEnumerateBudgetedSameOrder is the determinism check of the one
// generation loop over the random corpus: EnumerateBudgeted under no budget
// or a non-binding one must equal Enumerate element for element, not only
// as a set.
func TestEnumerateBudgetedSameOrder(t *testing.T) {
	b := smallBounds()
	forCorpus(func(name string, it *T) {
		nset := map[tree.NodeID]bool{}
		for id := range it.Nodes {
			nset[id] = true
		}
		want := it.Enumerate(b)
		for _, bud := range nonBinding() {
			got, err := it.EnumerateBudgeted(b, bud)
			if err != nil {
				t.Fatalf("%s: non-binding budget exhausted: %v", name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: lengths differ: %d vs %d", name, len(got), len(want))
			}
			for i := range want {
				if CanonRelative(got[i], nset) != CanonRelative(want[i], nset) {
					t.Fatalf("%s: order differs at %d", name, i)
				}
			}
		}
	})
}

// TestEqualRepSetsPerturbation: identical trees have equal bounded
// rep-sets, and dropping the root's star item is detected.
func TestEqualRepSetsPerturbation(t *testing.T) {
	b := smallBounds()
	a1 := example22()
	a2 := example22()
	if ok, diff := EqualRepSets(a1, a2, b); !ok {
		t.Fatalf("identical trees differ: %s", diff)
	}
	// Perturb: drop the root's star item.
	a2.Type.Mu["r"] = ctype.Disj{ctype.SAtom{{Sym: "n", Mult: dtd.One}}}
	if ok, _ := EqualRepSets(a1, a2, b); ok {
		t.Fatal("perturbed tree reported rep-set equal")
	}
}

func TestMemberCacheHitsAndInvalidation(t *testing.T) {
	ResetCache()
	it := example22()
	d, ok := it.Witness()
	if !ok {
		t.Fatal("no witness")
	}
	if !it.Member(d) {
		t.Fatal("witness not a member")
	}
	before := CacheStats()
	for i := 0; i < 5; i++ {
		it.Member(d)
	}
	after := CacheStats()
	if after.Hits < before.Hits+5 {
		t.Fatalf("repeated Member not served from cache: %+v -> %+v", before, after)
	}
	// Mutating the tree changes its fingerprint: the stale entry must not
	// be observable.
	it.Type.Cond["n"] = cond.Eq(rat.FromInt(99))
	if it.Member(d) {
		t.Fatal("mutated tree still reports membership (stale cache entry)")
	}
}

func TestPrefixCacheAgreesWithUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 15; i++ {
		it := randomITree(rng)
		cand, ok := it.Witness()
		if !ok {
			continue
		}
		ResetCache()
		p1 := it.IsPossiblePrefix(cand)
		c1 := it.IsCertainPrefix(cand)
		// Second round must hit the cache and agree.
		p2 := it.IsPossiblePrefix(cand)
		c2 := it.IsCertainPrefix(cand)
		if p1 != p2 || c1 != c2 {
			t.Fatalf("instance %d: cached prefix results flipped: poss %v->%v cert %v->%v", i, p1, p2, c1, c2)
		}
		if p1 != it.isPossiblePrefix(cand) || c1 != it.isCertainPrefix(cand) {
			t.Fatalf("instance %d: cached result disagrees with direct computation", i)
		}
	}
}
