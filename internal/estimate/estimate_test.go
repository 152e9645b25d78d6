package estimate

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

func TestChildFanoutExact(t *testing.T) {
	// On a flat, regular document the Markov estimate is exact.
	doc, err := xmltree.ParseString(`
<r><a><b/><b/><c/></a><a><b/></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(doc)
	if got := s.Fanout("a", dewey.Child, "b"); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("child fanout a→b = %v, want 1.5", got)
	}
	if got := s.Fanout("a", dewey.Child, "c"); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("child fanout a→c = %v, want 0.5", got)
	}
	if got := s.Fanout("a", dewey.Child, "zz"); got != 0 {
		t.Fatalf("absent child fanout = %v", got)
	}
	if got := s.Fanout("a", dewey.Self, "a"); got != 1 {
		t.Fatalf("self fanout = %v", got)
	}
	if got := s.Fanout("a", dewey.FollowingSibling, "b"); got != 0 {
		t.Fatalf("unsupported axis fanout = %v", got)
	}
}

func TestDescendantFanoutOnUniformTree(t *testing.T) {
	// r has two a children; each a has exactly one b; each b one c.
	doc, err := xmltree.ParseString(`
<r><a><b><c/></b></a><a><b><c/></b></a></r>`)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(doc)
	if got := s.Fanout("r", dewey.Descendant, "c"); math.Abs(got-2) > 1e-9 {
		t.Fatalf("descendant fanout r→c = %v, want 2", got)
	}
	if got := s.Fanout("a", dewey.Descendant, "c"); math.Abs(got-1) > 1e-9 {
		t.Fatalf("descendant fanout a→c = %v, want 1", got)
	}
}

func TestSelectivityBounds(t *testing.T) {
	doc, _ := xmltree.ParseString(`<r><a><b/></a><a/></r>`)
	s := Summarize(doc)
	sel := s.Selectivity("a", dewey.Child, "b")
	if sel <= 0 || sel >= 1 {
		t.Fatalf("selectivity = %v, want in (0,1)", sel)
	}
	if got := s.Selectivity("a", dewey.Child, "zz"); got != 0 {
		t.Fatalf("absent selectivity = %v", got)
	}
}

// TestEstimatesTrackExactStats checks the Markov estimates against exact
// index statistics on a generated corpus: per-root expected counts must
// be within a small factor, and the relative ordering of fanouts across
// the paper's query tags must agree.
func TestEstimatesTrackExactStats(t *testing.T) {
	doc, err := xmark.Generate(xmark.Options{Seed: 5, Items: 400})
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(doc)
	s := Summarize(doc)
	tags := []string{"description", "parlist", "mailbox", "mail", "text", "name", "incategory"}
	type fpair struct {
		tag          string
		exact, markv float64
	}
	var pairs []fpair
	for _, tag := range tags {
		st := index.PredicateStatsOf(ix, "item", dewey.Descendant, tag, index.ValueEq(""))
		exact := float64(st.TotalPairs) / float64(st.RootCount)
		markov := s.Fanout("item", dewey.Descendant, tag)
		if exact == 0 {
			continue
		}
		ratio := markov / exact
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("tag %s: markov %v vs exact %v (ratio %.2f)", tag, markov, exact, ratio)
		}
		pairs = append(pairs, fpair{tag, exact, markov})
	}
	// Ordering agreement on clearly separated pairs.
	for i := range pairs {
		for j := range pairs {
			if pairs[i].exact > 2*pairs[j].exact && pairs[i].markv <= pairs[j].markv {
				t.Errorf("ordering violated: %s (exact %v, markov %v) vs %s (exact %v, markov %v)",
					pairs[i].tag, pairs[i].exact, pairs[i].markv, pairs[j].tag, pairs[j].exact, pairs[j].markv)
			}
		}
	}
}

func TestTagCountAndString(t *testing.T) {
	doc, _ := xmltree.ParseString(`<r><a/><a/><b/></r>`)
	s := Summarize(doc)
	if s.TagCount("a") != 2 || s.TagCount("zz") != 0 {
		t.Fatal("TagCount broken")
	}
	dump := s.String()
	if !strings.Contains(dump, "r→a: 2") || !strings.Contains(dump, "r→b: 1") {
		t.Fatalf("String() = %q", dump)
	}
}

func TestRecursiveTagsConverge(t *testing.T) {
	// parlist is recursive in XMark documents; the estimate must stay
	// finite (bounded by the document height).
	doc, err := xmark.Generate(xmark.Options{Seed: 9, Items: 150})
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(doc)
	f := s.Fanout("item", dewey.Descendant, "parlist")
	if math.IsInf(f, 1) || math.IsNaN(f) || f < 0 {
		t.Fatalf("recursive fanout = %v", f)
	}
	if f == 0 {
		t.Fatal("parlist fanout should be positive")
	}
}
