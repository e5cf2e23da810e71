package conj

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"incxml/internal/budget"
	"incxml/internal/cond"
	"incxml/internal/ctype"
	"incxml/internal/dtd"
	"incxml/internal/tree"
)

// randomConjTree builds a small random conjunctive incomplete tree. Symbols
// only reference strictly higher-indexed symbols, so every certificate's
// expansion is well-founded.
func randomConjTree(rng *rand.Rand) *T {
	t := New()
	labels := []tree.Label{"a", "b"}
	conds := []cond.Cond{
		cond.True(), cond.EqInt(1), cond.EqInt(2), cond.NeInt(1), cond.LeInt(3),
	}
	mults := []dtd.Mult{dtd.One, dtd.Opt, dtd.Plus, dtd.Star}
	nSyms := 2 + rng.Intn(3)
	syms := make([]ctype.Symbol, nSyms)
	for i := range syms {
		syms[i] = ctype.Symbol(fmt.Sprintf("s%d", i))
		t.Sigma[syms[i]] = ctype.LabelTarget(labels[rng.Intn(len(labels))])
		t.Cond[syms[i]] = conds[rng.Intn(len(conds))]
	}
	for si, s := range syms {
		nConj := 1 + rng.Intn(2)
		var cnf CNF
		for c := 0; c < nConj; c++ {
			nAtoms := 1 + rng.Intn(2)
			var d ctype.Disj
			for i := 0; i < nAtoms; i++ {
				var a ctype.SAtom
				if si+1 < len(syms) {
					for j := 0; j < rng.Intn(3); j++ {
						child := syms[si+1+rng.Intn(len(syms)-si-1)]
						a = append(a, ctype.SItem{
							Sym:  child,
							Mult: mults[rng.Intn(len(mults))],
						})
					}
				}
				d = append(d, a)
			}
			cnf = append(cnf, d)
		}
		t.Mu[s] = cnf
	}
	nRootChoices := 1 + rng.Intn(2)
	for i := 0; i < nRootChoices; i++ {
		var rc RootChoice
		for j := 0; j <= rng.Intn(2); j++ {
			rc = append(rc, syms[rng.Intn(len(syms))])
		}
		t.Roots = append(t.Roots, rc)
	}
	t.MayBeEmpty = rng.Intn(6) == 0
	return t
}

// TestEmptyBudgetedMatchesSequential is the differential correctness test
// of the pruned search: over a corpus of random conjunctive instances, the
// unbudgeted EmptyBudgeted verdict and Empty must agree with the reference
// certificate scan.
func TestEmptyBudgetedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	nEmpty, nNonEmpty := 0, 0
	for i := 0; i < 40; i++ {
		inst := randomConjTree(rng)
		want := inst.EmptySequential()
		if want {
			nEmpty++
		} else {
			nNonEmpty++
		}
		v, err := inst.EmptyBudgeted(ctx, nil, nil)
		if err != nil || v != budget.Of(want) {
			t.Fatalf("instance %d: EmptyBudgeted=%v (%v) sequential=%v\n%s",
				i, v, err, want, inst.String())
		}
		if got := inst.Empty(); got != want {
			t.Fatalf("instance %d: Empty()=%v sequential=%v", i, got, want)
		}
	}
	if nEmpty == 0 || nNonEmpty == 0 {
		t.Fatalf("corpus not discriminating: %d empty, %d non-empty", nEmpty, nNonEmpty)
	}
}

// hardEmptyInstance builds an instance with 2^k certificates, none
// satisfiable: the root requires one child typed c (value 3) in every
// expansion, but every conjunct choice forces the child set {a or b} whose
// joined condition contradicts c's. The reference scan visits all 2^k
// certificates; the pruned search shares join work across them but still
// faces an exponential digit space, making this the stress case for the
// budgeted solvers.
func hardEmptyInstance(k int) *T {
	t := New()
	t.Sigma["r"] = ctype.LabelTarget("r")
	t.Sigma["c"] = ctype.LabelTarget("x")
	t.Cond["c"] = cond.EqInt(3)
	t.Sigma["a"] = ctype.LabelTarget("x")
	t.Cond["a"] = cond.EqInt(1)
	t.Sigma["b"] = ctype.LabelTarget("x")
	t.Cond["b"] = cond.EqInt(2)
	cnf := CNF{ctype.Disj{ctype.SAtom{{Sym: "c", Mult: dtd.One}}}}
	for i := 0; i < k; i++ {
		cnf = append(cnf, ctype.Disj{
			ctype.SAtom{{Sym: "a", Mult: dtd.One}},
			ctype.SAtom{{Sym: "b", Mult: dtd.One}},
		})
	}
	t.Mu["r"] = cnf
	t.Roots = []RootChoice{{"r"}}
	return t
}

func TestHardEmptyInstance(t *testing.T) {
	inst := hardEmptyInstance(6)
	if !inst.EmptySequential() {
		t.Fatal("hard instance should be empty sequentially")
	}
	if !inst.Empty() {
		t.Fatal("hard instance should be empty under the pruned search")
	}
	// Flip one branch to be satisfiable: now a witness exists and the pruned
	// search must find it (and agree with sequential).
	sat := hardEmptyInstance(6)
	sat.Cond["c"] = cond.EqInt(1)
	// A certificate choosing "a" everywhere joins to the value 1 — non-empty.
	if sat.EmptySequential() {
		t.Fatal("satisfiable variant reported empty sequentially")
	}
	if sat.Empty() {
		t.Fatal("satisfiable variant reported empty by the pruned search")
	}
}
