package webhouse

import (
	"context"
	"testing"

	"incxml/internal/workload"
)

// TestKnowledgeSharedUntilCommit pins the per-commit reachable view: every
// reader gets the same tree until the knowledge changes, and every kind of
// change — an acquisition, an invalidation, a restore — installs a fresh
// one.
func TestKnowledgeSharedUntilCommit(t *testing.T) {
	wh, _ := newCatalogWebhouse(t)
	ctx := context.Background()
	know := func() any {
		t.Helper()
		k, err := wh.Knowledge("catalog")
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := wh.Knowledge("catalog"); again != k {
			t.Fatal("Knowledge built a new tree without a commit")
		}
		return k
	}
	prev := know()
	if _, err := wh.AnswerLocally(ctx, "catalog", workload.Query2()); err != nil {
		t.Fatal(err)
	}
	if know() != prev {
		t.Fatal("a local answer replaced the shared knowledge")
	}
	steps := []struct {
		name string
		do   func() error
	}{
		{"Explore", func() error {
			_, err := wh.Explore(ctx, "catalog", workload.Query1(200))
			return err
		}},
		{"Invalidate", func() error { return wh.Invalidate("catalog") }},
		{"RestoreKnowledge", func() error {
			r, _ := wh.Repo("catalog")
			ref := r.Refiner()
			return wh.RestoreKnowledge("catalog", ref.Tree(), ref.Steps(), ref.Lossy())
		}},
	}
	for _, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		next := know()
		if next == prev {
			t.Fatalf("%s kept the previous reachable tree", s.name)
		}
		prev = next
	}
}
