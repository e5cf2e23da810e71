package conj

import (
	"context"
	"math/rand"
	"testing"

	"incxml/internal/budget"
	"incxml/internal/refine"
	"incxml/internal/workload"
)

// TestEmptyScanDifferentialCorpus pins the pruned certificate search to the
// reference mixed-radix scan over a corpus an order of magnitude larger than
// TestEmptyBudgetedMatchesSequential's: every seed drives both Empty (the pruned
// search) and EmptyBudgeted with an effectively unlimited budget, and each
// verdict must be byte-identical to EmptySequential's. The corpus includes
// instances whose joins hit the bounds-merge error (the poisoning corner that
// forces witness confirmation), so both the errFree fast path and the
// confirmation path are exercised.
func TestEmptyScanDifferentialCorpus(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 7, 11, 13, 17, 19, 23}
	perSeed := 50
	if testing.Short() {
		seeds = seeds[:3]
		perSeed = 15
	}
	ctx := context.Background()
	nEmpty, nNonEmpty := 0, 0
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < perSeed; i++ {
			inst := randomConjTree(rng)
			want := inst.EmptySequential()
			if want {
				nEmpty++
			} else {
				nNonEmpty++
			}
			if got := inst.Empty(); got != want {
				t.Fatalf("seed %d instance %d: Empty()=%v sequential=%v\n%s",
					seed, i, got, want, inst.String())
			}
			b := budget.New(ctx, 1<<40)
			v, err := inst.EmptyBudgeted(ctx, nil, b)
			if v == budget.Unknown {
				t.Fatalf("seed %d instance %d: unlimited budget returned Unknown (%v)", seed, i, err)
			}
			if (v == budget.Yes) != want {
				t.Fatalf("seed %d instance %d: budgeted=%v sequential=%v\n%s",
					seed, i, v, want, inst.String())
			}
		}
	}
	if nEmpty == 0 || nNonEmpty == 0 {
		t.Fatalf("corpus not discriminating: %d empty, %d non-empty", nEmpty, nNonEmpty)
	}
}

// buildBlowup refines the E6/E21 blowup family up to n steps.
func buildBlowup(t testing.TB, n int) *T {
	t.Helper()
	world := workload.BlowupWorld()
	c := FromITree(refine.Universal(workload.BlowupSigma))
	for i := 1; i <= n; i++ {
		q := workload.BlowupQuery(int64(i))
		if err := c.RefinePlus(q, q.Eval(world), workload.BlowupSigma); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestE21CrossoverSmoke is the E21 acceptance gate in test form: at the
// benchmark's budget of 20000 steps the blowup instance must stay exactly
// decided well past the old crossover (the pre-E21 search went Unknown at
// n=6). The content models of the family are all-Star, so the witness
// confirmation is statically skipped and the budgeted cost stays linear.
func TestE21CrossoverSmoke(t *testing.T) {
	n := 8
	c := buildBlowup(t, n)
	b := budget.New(context.Background(), 20000)
	v, err := c.EmptyBudgeted(context.Background(), nil, b)
	if err != nil {
		t.Fatalf("EmptyBudgeted at n=%d: %v (used %d steps)", n, err, b.Used())
	}
	if v != budget.No {
		t.Fatalf("blowup n=%d at 20000 steps: verdict %v, want No (used %d steps)", n, v, b.Used())
	}
	t.Logf("blowup n=%d decided exactly in %d steps", n, b.Used())
}

// TestBlowupMatchesSequentialSmall cross-checks the errFree fast path (the
// blowup family skips witness confirmation) against the reference scan on
// sizes where the reference is still tractable.
func TestBlowupMatchesSequentialSmall(t *testing.T) {
	for n := 1; n <= 2; n++ {
		c := buildBlowup(t, n)
		if got, want := c.Empty(), c.EmptySequential(); got != want {
			t.Fatalf("blowup n=%d: Empty()=%v sequential=%v", n, got, want)
		}
	}
}

// BenchmarkEmptyScanBlowup measures the pruned search on the blowup family
// (witness found, confirmation skipped): the E21 before/after comparison is
// against EmptySequential on the same instance, which is exponential in n.
func BenchmarkEmptyScanBlowup(b *testing.B) {
	c := buildBlowup(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Empty() {
			b.Fatal("blowup instance reported empty")
		}
	}
}

// BenchmarkEmptyScanHardEmpty measures the pruned search on the
// all-certificates-infeasible family (no witness: full exhaustion).
func BenchmarkEmptyScanHardEmpty(b *testing.B) {
	inst := hardEmptyInstance(12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !inst.Empty() {
			b.Fatal("hard instance not empty")
		}
	}
}

// BenchmarkEmptySequentialHardEmpty is the reference-scan baseline for the
// same instance (the E21 "before" column).
func BenchmarkEmptySequentialHardEmpty(b *testing.B) {
	inst := hardEmptyInstance(12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !inst.EmptySequential() {
			b.Fatal("hard instance not empty")
		}
	}
}
