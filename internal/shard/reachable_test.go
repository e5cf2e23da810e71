package shard

import (
	"context"
	"sync"
	"testing"

	"incxml/internal/itree"
	"incxml/internal/query"
	"incxml/internal/workload"
)

// TestKnowledgeReadOnlyUnderServing serves a short soak of every read
// route against knowledge that does not change, and checks that the shared
// per-commit reachable tree comes out untouched: the same pointer, the
// same fingerprint, the same rendering. Every shard is down, so
// completions degrade to local answers over that tree instead of folding
// new observations, and a small step budget, set once the knowledge is
// acquired, sends the local answers through the lossy fallback. Run under -race, it also shows that the
// readers only read.
func TestKnowledgeReadOnlyUnderServing(t *testing.T) {
	c, _ := fixture(t, Config{Shards: 2, ShrinkTo: 8}, 4)
	warm(t, c)
	ctx := context.Background()
	ty := workload.CatalogType()
	for i, name := range c.Sources() {
		// Price and category splits give labels several specializations,
		// so the lossy fallback has symbols to merge.
		if _, err := c.Explore(ctx, name, workload.Query3(int64(150+50*i))); err != nil {
			t.Fatal(err)
		}
	}
	type pin struct {
		know *itree.T
		fp   itree.FP
		str  string
	}
	sources := c.Sources()
	pins := map[string]pin{}
	for _, name := range sources {
		know, err := c.Knowledge(name)
		if err != nil {
			t.Fatal(err)
		}
		pins[name] = pin{know, know.Fingerprint(), know.String()}
	}
	for _, g := range c.Groups() {
		g.SetDown(true)
		g.Webhouse().SetBudget(60)
	}

	queries := []query.Query{workload.Query1(100), workload.Query2(), workload.Query3(300), workload.Query4()}
	for s := int64(0); s < 8; s++ {
		queries = append(queries, workload.RandomLinearQuery(ty, s, 2+int(s%3), 300))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := queries[(w*7+i)%len(queries)]
				src := sources[(w+i)%len(sources)]
				var err error
				switch i % 5 {
				case 0:
					_, err = c.AnswerLocally(ctx, src, q)
				case 1:
					_, err = c.AnswerComplete(ctx, src, q)
				case 2:
					_, err = c.ScatterLocal(ctx, q)
				case 3:
					_, err = c.ScatterComplete(ctx, q)
				case 4:
					_, err = c.AnswerExtended(ctx, src, extFixtureQuery())
				}
				if err != nil {
					t.Errorf("worker %d op %d on %s: %v", w, i, src, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Every budget exhaustion of a local answer runs the lossy fallback on
	// the shared tree.
	if st := c.Stats(); st.DegradedAnswers == 0 || st.BudgetExhaustions == 0 {
		t.Fatalf("soak missed a read path: %d degraded answers, %d budget exhaustions", st.DegradedAnswers, st.BudgetExhaustions)
	}

	for _, name := range sources {
		know, err := c.Knowledge(name)
		if err != nil {
			t.Fatal(err)
		}
		p := pins[name]
		if know != p.know {
			t.Fatalf("%s: the soak replaced the knowledge although nothing was acquired", name)
		}
		if know.Fingerprint() != p.fp || know.String() != p.str {
			t.Fatalf("%s: a reader mutated the shared reachable tree", name)
		}
	}
}
