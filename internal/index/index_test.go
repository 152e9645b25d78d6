package index

import (
	"math/rand"
	"testing"

	"repro/internal/dewey"
	"repro/internal/xmltree"
)

const libraryXML = `
<library>
  <book>
    <title>wodehouse</title>
    <info>
      <publisher><name>psmith</name></publisher>
    </info>
  </book>
  <book>
    <title>wodehouse</title>
    <reviews><title>great</title></reviews>
  </book>
  <book>
    <info><title>nested</title></info>
  </book>
</library>`

func mustDoc(t *testing.T, s string) *xmltree.Document {
	t.Helper()
	doc, err := xmltree.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestNodesPostings(t *testing.T) {
	ix := Build(mustDoc(t, libraryXML))
	books := ix.Nodes("book")
	if len(books) != 3 {
		t.Fatalf("books = %d", len(books))
	}
	titles := ix.Nodes("title")
	if len(titles) != 4 {
		t.Fatalf("titles = %d", len(titles))
	}
	// Document order.
	for i := 1; i < len(titles); i++ {
		if titles[i].ID.Compare(titles[i-1].ID) <= 0 {
			t.Fatal("postings out of document order")
		}
	}
	if ix.CountTag("book") != 3 || ix.CountTag("nothing") != 0 {
		t.Fatal("CountTag broken")
	}
}

func TestNodesMatchingEquality(t *testing.T) {
	ix := Build(mustDoc(t, libraryXML))
	wode := ix.NodesMatching("title", ValueEq("wodehouse"))
	if len(wode) != 2 {
		t.Fatalf("wodehouse titles = %d", len(wode))
	}
	if got := ix.NodesMatching("title", ValueEq("")); len(got) != 4 {
		t.Fatalf("empty value should mean any: %d", len(got))
	}
	if got := ix.NodesMatching("title", ValueEq("absent")); len(got) != 0 {
		t.Fatalf("absent value = %d", len(got))
	}
}

func TestCandidatesChild(t *testing.T) {
	ix := Build(mustDoc(t, libraryXML))
	book1 := ix.Nodes("book")[0]
	got := ix.AppendCandidates(nil, book1, dewey.Child, "title", ValueEq(""))
	if len(got) != 1 || got[0].Value != "wodehouse" {
		t.Fatalf("child titles of book1 = %v", got)
	}
	if got := ix.AppendCandidates(nil, book1, dewey.Child, "name", ValueEq("")); len(got) != 0 {
		t.Fatalf("name is not a child of book1: %v", got)
	}
}

func TestCandidatesDescendant(t *testing.T) {
	ix := Build(mustDoc(t, libraryXML))
	books := ix.Nodes("book")
	if got := ix.AppendCandidates(nil, books[0], dewey.Descendant, "name", ValueEq("psmith")); len(got) != 1 {
		t.Fatalf("descendant name of book1 = %v", got)
	}
	// book2 has two descendant titles (own + reviews/title).
	if got := ix.AppendCandidates(nil, books[1], dewey.Descendant, "title", ValueEq("")); len(got) != 2 {
		t.Fatalf("descendant titles of book2 = %v", got)
	}
	// Results must not leak into the next book's subtree.
	lib := ix.Nodes("library")[0]
	all := ix.AppendCandidates(nil, lib, dewey.Descendant, "title", ValueEq(""))
	if len(all) != 4 {
		t.Fatalf("library descendant titles = %d", len(all))
	}
}

func TestCandidatesSelf(t *testing.T) {
	ix := Build(mustDoc(t, libraryXML))
	b := ix.Nodes("book")[0]
	if got := ix.AppendCandidates(nil, b, dewey.Self, "book", ValueEq("")); len(got) != 1 {
		t.Fatal("self probe failed")
	}
	if got := ix.AppendCandidates(nil, b, dewey.Self, "title", ValueEq("")); len(got) != 0 {
		t.Fatal("self probe with wrong tag should be empty")
	}
	if got := ix.AppendCandidates(nil, b, dewey.FollowingSibling, "book", ValueEq("")); got != nil {
		t.Fatal("unsupported probe axis must return nil")
	}
}

func TestPredicateStats(t *testing.T) {
	ix := Build(mustDoc(t, libraryXML))
	// pc(book, title): books 1 and 2 have a child title; book 3 does not.
	st := PredicateStatsOf(ix, "book", dewey.Child, "title", ValueEq(""))
	if st.RootCount != 3 || st.Satisfying != 2 || st.TotalPairs != 2 || st.MaxTF != 1 {
		t.Fatalf("pc(book,title) stats = %+v", st)
	}
	// ad(book, title): all three books; book 2 has tf 2.
	st = PredicateStatsOf(ix, "book", dewey.Descendant, "title", ValueEq(""))
	if st.Satisfying != 3 || st.TotalPairs != 4 || st.MaxTF != 2 {
		t.Fatalf("ad(book,title) stats = %+v", st)
	}
	// Value predicate.
	st = PredicateStatsOf(ix, "book", dewey.Descendant, "title", ValueEq("wodehouse"))
	if st.Satisfying != 2 || st.MaxTF != 1 {
		t.Fatalf("ad(book,title=wodehouse) stats = %+v", st)
	}
	// Relaxed (ad) dominates exact (pc): idf denominator can only grow.
	exact := PredicateStatsOf(ix, "book", dewey.Child, "title", ValueEq(""))
	relaxed := PredicateStatsOf(ix, "book", dewey.Descendant, "title", ValueEq(""))
	if relaxed.Satisfying < exact.Satisfying || relaxed.TotalPairs < exact.TotalPairs {
		t.Fatal("relaxation must not lose matches")
	}
}

func TestStatsDerived(t *testing.T) {
	st := PredicateStats{RootCount: 4, Satisfying: 2, TotalPairs: 6, MaxTF: 5}
	if got := st.Selectivity(); got != 0.5 {
		t.Fatalf("Selectivity = %v", got)
	}
	if got := st.MeanFanout(); got != 3 {
		t.Fatalf("MeanFanout = %v", got)
	}
	zero := PredicateStats{}
	if zero.Selectivity() != 0 || zero.MeanFanout() != 0 {
		t.Fatal("zero stats should not divide by zero")
	}
}

func TestTF(t *testing.T) {
	ix := Build(mustDoc(t, libraryXML))
	book2 := ix.Nodes("book")[1]
	if got := len(ix.AppendCandidates(nil, book2, dewey.Descendant, "title", ValueEq(""))); got != 2 {
		t.Fatalf("tf = %d, want 2", got)
	}
	if got := len(ix.AppendCandidates(nil, book2, dewey.Child, "title", ValueEq("wodehouse"))); got != 1 {
		t.Fatalf("tf = %d, want 1", got)
	}
}

// TestRangeScanAgainstNaive cross-checks the Dewey-range descendant scan
// with a brute-force walk on a random document.
func TestRangeScanAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	tags := []string{"a", "b", "c"}
	b := xmltree.NewBuilder().Root("root")
	var grow func(depth int)
	grow = func(depth int) {
		if depth > 4 {
			return
		}
		kids := r.Intn(4)
		for i := 0; i < kids; i++ {
			b.Open(tags[r.Intn(len(tags))])
			grow(depth + 1)
			b.Close()
		}
	}
	grow(0)
	doc := b.Doc()
	ix := Build(doc)
	for _, anchor := range doc.Nodes {
		for _, tag := range tags {
			got := ix.AppendCandidates(nil, anchor, dewey.Descendant, tag, ValueEq(""))
			var want []*xmltree.Node
			for _, d := range anchor.Descendants() {
				if d.Tag == tag {
					want = append(want, d)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("anchor %v tag %s: scan %d vs naive %d", anchor, tag, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("anchor %v tag %s: order mismatch", anchor, tag)
				}
			}
		}
	}
}

// TestPredicateStatsAgainstNaive cross-checks PredicateStatsOf with
// statistics counted by walking the tree, for every root tag, axis,
// target tag and value test on the library document.
func TestPredicateStatsAgainstNaive(t *testing.T) {
	doc := mustDoc(t, libraryXML)
	ix := Build(doc)
	tags := []string{"library", "book", "title", "info", "name", "publisher", "reviews", "zzz"}
	vts := []ValueTest{ValueEq(""), ValueEq("wodehouse"), Test("contains", "e")}
	related := func(anchor *xmltree.Node, axis dewey.Axis) []*xmltree.Node {
		switch axis {
		case dewey.Self:
			return []*xmltree.Node{anchor}
		case dewey.Child:
			return anchor.Children
		default:
			return anchor.Descendants()
		}
	}
	for _, rootTag := range tags {
		for _, axis := range []dewey.Axis{dewey.Self, dewey.Child, dewey.Descendant} {
			for _, tag := range tags {
				for _, vt := range vts {
					var want PredicateStats
					for _, n := range doc.Nodes {
						if n.Tag != rootTag {
							continue
						}
						want.RootCount++
						tf := 0
						for _, m := range related(n, axis) {
							if m.Tag == tag && vt.Matches(m.Value) {
								tf++
							}
						}
						want.Add(tf)
					}
					if got := PredicateStatsOf(ix, rootTag, axis, tag, vt); got != want {
						t.Fatalf("PredicateStatsOf(%s,%v,%s,%v) = %+v, naive %+v", rootTag, axis, tag, vt, got, want)
					}
				}
			}
		}
	}
}
