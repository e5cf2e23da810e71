package refine

import (
	"context"
	"fmt"
	"testing"

	"incxml/internal/answer"
	"incxml/internal/budget"
	"incxml/internal/dtd"
	"incxml/internal/heuristics"
	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/tree"
	"incxml/internal/workload"
)

// checkCompactAgainstOracle compares Compact with the string-keyed
// reference compaction on one tree: byte-identical rendering and
// fingerprint, and roots-based emptiness equal to the fixpoint one. It
// returns that emptiness.
func checkCompactAgainstOracle(t *testing.T, label string, in *itree.T) bool {
	t.Helper()
	want := oracleCompact(in)
	got := Compact(in)
	if g, w := got.String(), want.String(); g != w {
		t.Fatalf("%s: Compact differs from the oracle\ngot:\n%s\nwant:\n%s", label, g, w)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: Compact fingerprint differs from the oracle", label)
	}
	empty := oracleEmpty(in)
	if e := compactedEmpty(got); e != empty {
		t.Fatalf("%s: roots-based emptiness %v, oracle Empty %v", label, e, empty)
	}
	if e := in.Empty(); e != empty {
		t.Fatalf("%s: Empty %v, oracle Empty %v", label, e, empty)
	}
	return empty
}

// TestCompactMatchesOracle is the differential test of the one-pass
// compaction: over random tree types with random linear query chains, and
// over the Example 3.2 blow-up chain, Compact and the reachable tree must
// render byte-identically to the reference compaction at every step, and
// reading emptiness off the compacted roots must agree with Empty.
func TestCompactMatchesOracle(t *testing.T) {
	checks, empties := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		ty := workload.RandomType(seed, 4+int(seed%3))
		sigma := ty.Alphabet()
		doc, err := workload.RandomTree(ty, seed+5, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		other, err := workload.RandomTree(ty, seed+77, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		cur := Universal(sigma)
		for k := 0; k < 5; k++ {
			q := workload.RandomLinearQuery(ty, seed*13+int64(k), 3, 6)
			world := doc
			if k >= 2 {
				// Later answers from another document: often inconsistent,
				// so the empty case is exercised too.
				world = other
			}
			next, err := Refine(cur, q, q.Eval(world), sigma)
			if err != nil {
				continue // a known node changed label or value
			}
			label := fmt.Sprintf("seed %d step %d", seed, k)
			checks++
			if checkCompactAgainstOracle(t, label, next) {
				empties++
				break
			}
			next = Compact(next)
			// Query answers q(T) may have the empty tree as a world.
			if ans, err := answer.Apply(next, q); err == nil {
				checkCompactAgainstOracle(t, label+" answer", ans)
			}
			if checkCompactAgainstOracle(t, label+" reachable", WithTreeType(next, ty)) {
				empties++
				break
			}
			cur = next
		}
	}

	ty := workload.BlowupType()
	world := workload.BlowupWorld()
	cur := Universal(workload.BlowupSigma)
	for i, q := range workload.BlowupWorkload(5) {
		next, err := Refine(cur, q, q.Eval(world), workload.BlowupSigma)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("blowup step %d", i+1)
		checkCompactAgainstOracle(t, label, next)
		cur = Compact(next)
		checkCompactAgainstOracle(t, label+" reachable", WithTreeType(cur, ty))
		checkCompactAgainstOracle(t, label+" shrunk", heuristics.LossyShrink(cur, 16))
	}
	t.Logf("%d random refinements checked, %d empty", checks, empties)
	// Guard against a vacuous run: both emptiness verdicts must occur.
	if empties == 0 || empties == checks {
		t.Fatalf("%d of %d random refinements were empty; want both cases covered", empties, checks)
	}
}

// TestWithTreeTypeDeterministic pins the output order of WithTreeType:
// labels are expanded in their order of first appearance, not in map
// order, so identical inputs render and fingerprint identically.
func TestWithTreeTypeDeterministic(t *testing.T) {
	// a? and b? each expand into "no child" plus one variant per candidate
	// item, so the disjunct order depends on the order the labels are
	// visited in.
	rho := dtd.MustParse(`
root: root
root -> a? b?
`)
	r := NewRefiner(workload.BlowupSigma, nil)
	for _, q := range workload.BlowupWorkload(2) {
		if err := r.Observe(q, q.Eval(workload.BlowupWorld())); err != nil {
			t.Fatal(err)
		}
	}
	in := r.Tree()
	first := WithTreeType(in, rho)
	str, fp := first.String(), first.Fingerprint()
	for i := 0; i < 50; i++ {
		out := WithTreeType(in, rho)
		if out.String() != str {
			t.Fatalf("call %d rendered differently:\n%s\nfirst:\n%s", i, out, str)
		}
		if out.Fingerprint() != fp {
			t.Fatalf("call %d: fingerprint changed", i)
		}
	}
}

// TestReachableCachedPerCommit checks the per-commit reachable cache: the
// same tree until the next commit, a fresh one after every kind of commit,
// and always the tree the uncached construction gives.
func TestReachableCachedPerCommit(t *testing.T) {
	ty := workload.CatalogType()
	doc := workload.RandomCatalog(4, 3)
	r := NewRefiner(ty.Alphabet(), ty)
	check := func(step string) *itree.T {
		t.Helper()
		reach := r.Reachable()
		if again := r.Reachable(); again != reach {
			t.Fatalf("%s: Reachable returned a new tree without a commit", step)
		}
		if want := oracleCompact(WithTreeType(r.Tree(), ty)); reach.String() != want.String() {
			t.Fatalf("%s: cached reachable tree differs from the uncached one", step)
		}
		return reach
	}
	prev := check("initial")

	q := workload.Query1(200)
	if err := r.Observe(q, q.Eval(doc)); err != nil {
		t.Fatal(err)
	}
	afterObserve := check("Observe")
	if afterObserve == prev {
		t.Fatal("Observe did not clear the reachable cache")
	}

	q = workload.Query4()
	if _, err := r.ObserveBudgeted(q, q.Eval(doc), budget.New(context.Background(), 0), 0); err != nil {
		t.Fatal(err)
	}
	afterBudgeted := check("ObserveBudgeted")
	if afterBudgeted == afterObserve {
		t.Fatal("ObserveBudgeted did not clear the reachable cache")
	}

	// A rejected observation is no commit: the cache stays.
	bad := workload.Query1(200).Eval(workload.CatalogDocument([]workload.Product{
		{ID: "p1", Name: 10, Price: 130, Subcat: workload.ValCamera},
	}))
	if err := r.Observe(workload.Query1(200), bad); err == nil {
		t.Log("observation happened to be consistent")
	} else if r.Reachable() != afterBudgeted {
		t.Fatal("a rejected observation cleared the reachable cache")
	}

	restored := RestoreRefiner(r.Sigma(), ty, r.Tree(), r.Steps(), r.Lossy())
	reach := restored.Reachable()
	if reach == r.Reachable() {
		t.Fatal("RestoreRefiner shares the reachable tree of its source")
	}
	if reach.String() != r.Reachable().String() {
		t.Fatal("RestoreRefiner's reachable tree differs from the original's")
	}
}

// blowupChain returns the Example 3.2 refinement after n steps, and the
// uncompacted result of the next step.
func blowupChain(b *testing.B, n int) (*itree.T, query.Query, tree.Tree) {
	b.Helper()
	world := workload.BlowupWorld()
	r := NewRefiner(workload.BlowupSigma, workload.BlowupType())
	for _, q := range workload.BlowupWorkload(n) {
		if err := r.Observe(q, q.Eval(world)); err != nil {
			b.Fatal(err)
		}
	}
	q := workload.BlowupQuery(int64(n + 1))
	return r.Tree(), q, q.Eval(world)
}

// BenchmarkCompact times one compaction of the Example 3.2 refinement at
// n = 6 (the intersection output before compaction).
func BenchmarkCompact(b *testing.B) {
	cur, q, a := blowupChain(b, 5)
	next, err := Refine(cur, q, a, workload.BlowupSigma)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compact(next)
	}
}

// BenchmarkObserveBlowup times one Refine step of the Example 3.2 chain at
// n = 6 followed by the reachable view, as the webhouse pays them per
// acquisition and first local answer.
func BenchmarkObserveBlowup(b *testing.B) {
	cur, q, a := blowupChain(b, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := RestoreRefiner(workload.BlowupSigma, workload.BlowupType(), cur, 5, false)
		if err := r.Observe(q, a); err != nil {
			b.Fatal(err)
		}
		r.Reachable()
	}
}
