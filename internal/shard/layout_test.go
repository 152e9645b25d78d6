package shard

import (
	"bytes"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/store"
	"repro/internal/xmark"
	"repro/internal/xmltree"
)

func layoutOf(c *Corpus) (spine []int, units [][]int) {
	for _, s := range c.Spine() {
		spine = append(spine, s.Ord)
	}
	for _, p := range c.Parts() {
		ords := make([]int, len(p.Units))
		for i, u := range p.Units {
			ords[i] = u.Ord
		}
		units = append(units, ords)
	}
	return spine, units
}

func compareCorpora(t *testing.T, want, got *Corpus) {
	t.Helper()
	for _, tag := range []string{"item", "name", "parlist", "incategory", "absent"} {
		a, b := want.Nodes(tag), got.Nodes(tag)
		if len(a) != len(b) {
			t.Fatalf("Nodes(%s): %d vs %d", tag, len(a), len(b))
		}
		for i := range a {
			if a[i].Ord != b[i].Ord {
				t.Fatalf("Nodes(%s)[%d] ord mismatch", tag, i)
			}
		}
		pa := index.PredicateStatsOf(want, "item", dewey.Descendant, tag, index.ValueEq(""))
		pb := index.PredicateStatsOf(got, "item", dewey.Descendant, tag, index.ValueEq(""))
		if pa != pb {
			t.Fatalf("Predicate(%s): %+v vs %+v", tag, pa, pb)
		}
	}
	// Probe every item anchor and every spine anchor on both corpora.
	wd, gd := want.Doc(), got.Doc()
	for _, anchor := range want.Nodes("item") {
		a := want.AppendCandidates(nil, anchor, dewey.Descendant, "text", index.ValueEq(""))
		b := got.AppendCandidates(nil, gd.Nodes[anchor.Ord], dewey.Descendant, "text", index.ValueEq(""))
		if len(a) != len(b) {
			t.Fatalf("item %d Candidates: %d vs %d", anchor.Ord, len(a), len(b))
		}
	}
	for _, s := range want.Spine() {
		a := want.AppendCandidates(nil, s, dewey.Descendant, "item", index.ValueEq(""))
		b := got.AppendCandidates(nil, gd.Nodes[s.Ord], dewey.Descendant, "item", index.ValueEq(""))
		if len(a) != len(b) {
			t.Fatalf("spine %d Candidates: %d vs %d", s.Ord, len(a), len(b))
		}
	}
	if want.Synopsis().Fingerprint() != got.Synopsis().Fingerprint() {
		t.Fatal("synopsis fingerprints diverge")
	}
	_ = wd
}

func TestFromLayoutMatchesSplit(t *testing.T) {
	doc, err := xmark.Generate(xmark.Options{Seed: 11, Items: 40})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		want, err := Split(doc, p)
		if err != nil {
			t.Fatal(err)
		}
		spine, units := layoutOf(want)
		got, err := FromLayout(doc, spine, units, nil)
		if err != nil {
			t.Fatal(err)
		}
		compareCorpora(t, want, got)
	}
}

func TestFromLayoutSnapshotSources(t *testing.T) {
	doc, err := xmark.Generate(xmark.Options{Seed: 11, Items: 40})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Split(doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	spine, units := layoutOf(want)

	var buf bytes.Buffer
	if err := store.WriteSnapshot(&buf, &store.Snapshot{Doc: doc}); err != nil {
		t.Fatal(err)
	}
	r, err := store.ParseSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]index.Source, len(units))
	for i, ords := range units {
		ps, err := r.PartSource(ords)
		if err != nil {
			t.Fatal(err)
		}
		sources[i] = ps
	}
	got, err := FromLayout(r.Document(), spine, units, sources)
	if err != nil {
		t.Fatal(err)
	}
	compareCorpora(t, want, got)
}

func TestFromLayoutRejectsBadLayouts(t *testing.T) {
	doc, err := xmltree.ParseString(`<a><b><c/></b><d/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Split(doc, 1)
	if err != nil {
		t.Fatal(err)
	}
	spine, units := layoutOf(want)
	if _, err := FromLayout(doc, spine, units, nil); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	cases := map[string]func() (spine []int, units [][]int){
		"no parts":       func() ([]int, [][]int) { return nil, nil },
		"out of range":   func() ([]int, [][]int) { return nil, [][]int{{99}} },
		"duplicate":      func() ([]int, [][]int) { return nil, [][]int{{0, 0}} },
		"partial cover":  func() ([]int, [][]int) { return nil, [][]int{{1}} },
		"orphan unit":    func() ([]int, [][]int) { return nil, [][]int{{1, 2, 3}} },
		"non-spine root": func() ([]int, [][]int) { return []int{1}, [][]int{{2, 3}} },
	}
	for name, fn := range cases {
		s, u := fn()
		if _, err := FromLayout(doc, s, u, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := FromLayout(doc, spine, units, []index.Source{nil, nil}); err == nil {
		t.Error("source count mismatch accepted")
	}
}
