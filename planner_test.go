package whirlpool

import (
	"fmt"
	"testing"
)

// TestPlannerEquivalence checks plan-driven evaluation returns exactly
// the answers of plain evaluation — same roots, same scores — on single
// and sharded databases (sharded under the tie contract of
// compareAnswers), across relaxation modes, and that textual variants of
// one query share a single cached plan.
// +whirllint:exactscore plan-driven evaluation must reproduce scores bit-for-bit
func TestPlannerEquivalence(t *testing.T) {
	db, err := GenerateXMark(XMarkOptions{Seed: 5, Items: 120})
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := db.Shard(4)
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"//item[./description/parlist]",
		"//item[./description/parlist and ./mailbox/mail/text]",
		"//item[./name = 'no-such-name' and .//text]",
	}
	type evaler interface {
		TopKString(xpath string, opts Options) (*Result, error)
		NewPlanner(capacity int) *Planner
	}
	for dbName, ev := range map[string]evaler{"single": db, "shards-4": sdb} {
		planner := ev.NewPlanner(16)
		for _, qs := range queries {
			for _, r := range []Relaxation{RelaxNone, RelaxAll} {
				t.Run(fmt.Sprintf("%s/%s/relax=%v", dbName, qs, r), func(t *testing.T) {
					q := MustParseQuery(qs)
					plan, hit, err := planner.PlanFor(q, r, NormSparse)
					if err != nil {
						t.Fatal(err)
					}
					if hit {
						t.Fatal("first PlanFor reported a cache hit")
					}
					opts := Options{K: 5, Relax: r}
					want, err := ev.TopKString(qs, opts)
					if err != nil {
						t.Fatal(err)
					}
					opts.Plan = plan
					got, err := ev.TopKString(qs, opts)
					if err != nil {
						t.Fatal(err)
					}
					var scores map[int]float64
					if dbName != "single" {
						scores = rootScores(t, db, q, opts)
					}
					compareAnswers(t, qs, want, got, 0, scores)
					if _, hit, err := planner.PlanFor(MustParseQuery(qs), r, NormSparse); err != nil || !hit {
						t.Fatalf("re-plan: hit=%v err=%v", hit, err)
					}
				})
			}
		}
		stats := planner.Stats()
		if stats.Misses != int64(len(queries)*2) || stats.Hits != int64(len(queries)*2) {
			t.Fatalf("planner stats = %+v, want %d misses and hits", stats, len(queries)*2)
		}
	}
}

// TestPlannerCanonicalSharing checks predicate-order variants share a
// plan, and that a plan is rejected for a structurally different query.
func TestPlannerCanonicalSharing(t *testing.T) {
	db, err := GenerateXMark(XMarkOptions{Seed: 5, Items: 40})
	if err != nil {
		t.Fatal(err)
	}
	planner := db.NewPlanner(8)
	a := "//item[./description/parlist and ./mailbox/mail/text]"
	b := "//item[./mailbox/mail/text and ./description/parlist]"
	planA, hit, err := planner.PlanFor(MustParseQuery(a), RelaxAll, NormSparse)
	if err != nil || hit {
		t.Fatalf("plan a: hit=%v err=%v", hit, err)
	}
	planB, hit, err := planner.PlanFor(MustParseQuery(b), RelaxAll, NormSparse)
	if err != nil || !hit {
		t.Fatalf("variant b missed the cache: hit=%v err=%v", hit, err)
	}
	if planA != planB {
		t.Fatal("order variants did not share one plan")
	}
	// Both variants evaluate through the shared plan.
	for _, qs := range []string{a, b} {
		if _, err := db.TopKString(qs, Options{K: 3, Relax: RelaxAll, Plan: planA}); err != nil {
			t.Fatalf("%s with shared plan: %v", qs, err)
		}
	}
	// Distinct normalizations and relaxations get distinct entries.
	if _, hit, err = planner.PlanFor(MustParseQuery(a), RelaxAll, NormDense); err != nil || hit {
		t.Fatalf("norm variant unexpectedly hit: %v %v", hit, err)
	}
	if _, hit, err = planner.PlanFor(MustParseQuery(a), RelaxNone, NormSparse); err != nil || hit {
		t.Fatalf("relax variant unexpectedly hit: %v %v", hit, err)
	}
	// A structurally different query must not ride on the plan.
	if _, err := db.TopK(MustParseQuery("//item[./payment]"), Options{K: 3, Relax: RelaxAll, Plan: planA}); err == nil {
		t.Fatal("mismatched plan accepted")
	}
}
