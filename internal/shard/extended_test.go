package shard

import (
	"context"
	"sort"
	"testing"

	"incxml/internal/budget"
	"incxml/internal/cond"
	"incxml/internal/extquery"
)

// extFixtureQuery is a branching extended query over the catalog schema:
// two same-label product siblings with different selections.
func extFixtureQuery() extquery.Query {
	return extquery.Query{Root: extquery.N("catalog", cond.True(),
		extquery.N("product", cond.True(), extquery.N("name", cond.True())),
		extquery.N("product", cond.True(),
			extquery.N("cat", cond.True(), extquery.N("subcat", cond.True()))))}
}

// TestScatterExtendedRoutesAndOrders: the extended scatter answers for
// every registered source, sorted, with per-shard health classification,
// and per-source answers agree with direct owner-shard routing.
func TestScatterExtendedRoutesAndOrders(t *testing.T) {
	c, worlds := fixture(t, Config{Shards: 4}, 9)
	warm(t, c)
	ctx := context.Background()
	q := extFixtureQuery()

	s, err := c.ScatterExtended(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Answers) != len(worlds) {
		t.Fatalf("scatter answered %d sources, want %d", len(s.Answers), len(worlds))
	}
	if !sort.SliceIsSorted(s.Answers, func(i, j int) bool {
		return s.Answers[i].Source < s.Answers[j].Source
	}) {
		t.Fatal("answers not sorted by source")
	}
	if s.Degraded() {
		t.Fatalf("unlimited-budget scatter degraded: shards %v", s.DegradedShards)
	}
	for _, ea := range s.Answers {
		if ea.Err != nil {
			t.Fatalf("%s: %v", ea.Source, ea.Err)
		}
		if ea.Answer.Class != extquery.ClassBranching {
			t.Fatalf("%s: class %v, want branching", ea.Source, ea.Answer.Class)
		}
		direct, err := c.AnswerExtended(ctx, ea.Source, q)
		if err != nil {
			t.Fatal(err)
		}
		if !direct.Known.Equal(ea.Answer.Known) {
			t.Fatalf("%s: scatter answer differs from direct routing", ea.Source)
		}
	}
}

// TestScatterExtendedBudgetDegradesShard: a starvation budget degrades the
// affected shards (ExactV stays Unknown, never a wrong definite claim) and
// the degradation is visible in DegradedShards and the shard counters.
func TestScatterExtendedBudgetDegradesShard(t *testing.T) {
	c, _ := fixture(t, Config{Shards: 3, Budget: 1}, 6)
	warm(t, c)
	s, err := c.ScatterExtended(context.Background(), extFixtureQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !s.Degraded() {
		t.Fatal("1-step budget scatter did not degrade")
	}
	for _, ea := range s.Answers {
		if ea.Err != nil {
			t.Fatalf("%s: hard error instead of sound degrade: %v", ea.Source, ea.Err)
		}
		if !ea.Answer.BudgetExhausted {
			t.Fatalf("%s: not flagged exhausted under 1-step budget", ea.Source)
		}
		if ea.Answer.ExactV != budget.Unknown {
			t.Fatalf("%s: degraded answer claims verdict %v", ea.Source, ea.Answer.ExactV)
		}
	}
	_, degraded := c.Scatters()
	if degraded == 0 {
		t.Fatal("degraded scatter not counted")
	}
}
