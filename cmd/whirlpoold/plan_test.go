package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro"
)

// TestQueryVariantsShareOneEngine checks the engine cache keys on the
// canonical plan key, not the raw query text: whitespace and
// predicate-order variants of one query must hit the same cached
// engine.
func TestQueryVariantsShareOneEngine(t *testing.T) {
	s := testServer(t)
	variants := []string{
		"//item[./description/parlist and ./mailbox/mail/text]",
		"//item[./mailbox/mail/text and ./description/parlist]",
		"//item[ ./description/parlist   and ./mailbox/mail/text ]",
	}
	for i, qs := range variants {
		w := post(t, s, "/query", queryRequest{Query: qs, K: 3})
		if w.Code != 200 {
			t.Fatalf("variant %d: %d %s", i, w.Code, w.Body.String())
		}
		var resp queryResponse
		if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		want := "hit"
		if i == 0 {
			want = "miss"
		}
		if resp.Cache != want {
			t.Fatalf("variant %d cache = %q, want %q", i, resp.Cache, want)
		}
	}
	if n := s.engines.Len(); n != 1 {
		t.Fatalf("engine cache holds %d entries for one canonical query, want 1", n)
	}
	ps := s.planner.Stats()
	if ps.Misses != 1 || ps.Hits != 2 {
		t.Fatalf("planner stats = %+v, want 1 miss and 2 hits", ps)
	}
	// Same shape at a different k shares the plan but not the engine.
	if w := post(t, s, "/query", queryRequest{Query: variants[0], K: 7}); w.Code != 200 {
		t.Fatalf("k=7: %d %s", w.Code, w.Body.String())
	}
	if n := s.engines.Len(); n != 2 {
		t.Fatalf("engine cache holds %d entries, want 2", n)
	}
	if ps := s.planner.Stats(); ps.Misses != 1 || ps.Hits != 3 {
		t.Fatalf("planner stats after k=7 = %+v, want 1 miss and 3 hits", ps)
	}
}

// TestPlanMetricsExposed checks /metrics carries the plan-cache
// counters and the planning-duration histogram after serving queries.
func TestPlanMetricsExposed(t *testing.T) {
	s := testServer(t)
	for i := 0; i < 3; i++ {
		if w := post(t, s, "/query", queryRequest{Query: "//item[./description/parlist]", K: 3}); w.Code != 200 {
			t.Fatalf("query %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	w := get(t, s, "/metrics?format=prometheus")
	if w.Code != 200 {
		t.Fatalf("metrics: %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"whirlpoold_plan_cache_hits_total 2",
		"whirlpoold_plan_cache_misses_total 1",
		"whirlpoold_plan_cache_entries 1",
		"whirlpoold_plan_cache_evictions 0",
		"whirlpoold_planning_duration_us",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestShardedPlanServing checks plan-keyed serving works end to end on
// a sharded server too.
// +whirllint:exactscore plan-keyed and fresh serving must return bit-identical scores
func TestShardedPlanServing(t *testing.T) {
	s := testServerOpts(t, serverOptions{Shards: 4})
	a := "//item[./description/parlist and ./mailbox/mail/text]"
	b := "//item[./mailbox/mail/text and ./description/parlist]"
	var first queryResponse
	w := post(t, s, "/query", queryRequest{Query: a, K: 5})
	if w.Code != 200 {
		t.Fatalf("query a: %d %s", w.Code, w.Body.String())
	}
	if err := json.NewDecoder(w.Body).Decode(&first); err != nil {
		t.Fatal(err)
	}
	var second queryResponse
	w = post(t, s, "/query", queryRequest{Query: b, K: 5})
	if w.Code != 200 {
		t.Fatalf("query b: %d %s", w.Code, w.Body.String())
	}
	if err := json.NewDecoder(w.Body).Decode(&second); err != nil {
		t.Fatal(err)
	}
	if second.Cache != "hit" {
		t.Fatalf("variant cache = %q, want hit", second.Cache)
	}
	if len(first.Answers) != len(second.Answers) {
		t.Fatalf("answer counts differ: %d vs %d", len(first.Answers), len(second.Answers))
	}
	if len(first.Answers) == 0 {
		t.Fatal("no answers")
	}
	// Sharded runs follow DESIGN.md's tie contract ("Tie pruning"): which
	// of several roots tied at the k-th score is reported depends on the
	// shard schedule. Scores agree at every rank, roots strictly above
	// the k-th score agree, and a root reported at the k-th score must
	// score that on an unsharded run that keeps every root.
	all, err := s.db.TopK(whirlpool.MustParseQuery(a), whirlpool.Approximate(s.db.Size()))
	if err != nil {
		t.Fatal(err)
	}
	best := make(map[string]float64, len(all.Answers))
	for _, ans := range all.Answers {
		best[ans.Root.ID.String()] = ans.Score
	}
	boundary := first.Answers[len(first.Answers)-1].Score
	for i, f := range first.Answers {
		g := second.Answers[i]
		if g.Score != f.Score {
			t.Fatalf("answer %d score differs between variants: %+v vs %+v", i, f, g)
		}
		if f.Score > boundary && g.Dewey != f.Dewey {
			t.Fatalf("answer %d above the k-th score differs between variants: %+v vs %+v", i, f, g)
		}
		if sc, ok := best[g.Dewey]; f.Score == boundary && (!ok || sc != boundary) {
			t.Fatalf("answer %d: root %s reported at the k-th score %v, but its best score is %v (found %v)",
				i, g.Dewey, boundary, sc, ok)
		}
	}
}
