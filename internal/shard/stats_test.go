package shard

import (
	"bytes"
	"testing"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/store"
	"repro/internal/xmark"
)

// TestPredicateStatsOfGolden pins index.PredicateStatsOf over each of
// the five index.Source implementations — the in-memory index, the
// snapshot reader, one snapshot part, the sharded corpus and its spine
// view — to golden values recorded from the per-implementation
// statistics scans it replaced. Cases cover structural and valued
// predicates on the Child, Descendant and Self axes, spine anchors
// (site, regions, europe are cut at 4 shards), an axis without
// candidates and absent tags.
func TestPredicateStatsOfGolden(t *testing.T) {
	doc, err := xmark.Generate(xmark.Options{Seed: 7, Items: 40})
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := Split(doc, 4)
	if err != nil {
		t.Fatal(err)
	}
	spine, units := layoutOf(corpus)
	var buf bytes.Buffer
	snap := &store.Snapshot{Doc: doc, Shards: []store.ShardLayout{{P: 4, Spine: spine, Units: units}}}
	if err := store.WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	r, err := store.ParseSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	part, err := r.PartSource(units[1])
	if err != nil {
		t.Fatal(err)
	}
	subs := corpus.ShardSources()
	spineSrc, ok := subs[len(subs)-1].(*spineView)
	if !ok {
		t.Fatal("4-shard corpus has no spine sub-source")
	}
	names := [5]string{"index", "snapshot", "part", "corpus", "spine"}
	srcs := [5]index.Source{index.Build(doc), r, part, corpus, spineSrc}
	cases := []struct {
		root string
		axis dewey.Axis
		tag  string
		vt   index.ValueTest
		want [5][4]int // {RootCount, Satisfying, TotalPairs, MaxTF} per source
	}{
		{"item", dewey.Child, "name", index.ValueTest{}, [5][4]int{{40, 40, 40, 1}, {40, 40, 40, 1}, {8, 8, 8, 1}, {40, 40, 40, 1}, {0, 0, 0, 0}}},
		{"item", dewey.Child, "payment", index.ValueEq("Cash"), [5][4]int{{40, 9, 9, 1}, {40, 9, 9, 1}, {8, 2, 2, 1}, {40, 9, 9, 1}, {0, 0, 0, 0}}},
		{"item", dewey.Child, "quantity", index.Test("<", "3"), [5][4]int{{40, 22, 22, 1}, {40, 22, 22, 1}, {8, 3, 3, 1}, {40, 22, 22, 1}, {0, 0, 0, 0}}},
		{"item", dewey.Descendant, "text", index.ValueTest{}, [5][4]int{{40, 40, 142, 12}, {40, 40, 142, 12}, {8, 8, 25, 9}, {40, 40, 142, 12}, {0, 0, 0, 0}}},
		{"item", dewey.Descendant, "keyword", index.ValueTest{}, [5][4]int{{40, 32, 62, 5}, {40, 32, 62, 5}, {8, 6, 11, 5}, {40, 32, 62, 5}, {0, 0, 0, 0}}},
		{"item", dewey.Descendant, "payment", index.ValueEq("Creditcard"), [5][4]int{{40, 5, 5, 1}, {40, 5, 5, 1}, {8, 2, 2, 1}, {40, 5, 5, 1}, {0, 0, 0, 0}}},
		{"item", dewey.Descendant, "name", index.Test("contains", "gold"), [5][4]int{{40, 6, 6, 1}, {40, 6, 6, 1}, {8, 2, 2, 1}, {40, 6, 6, 1}, {0, 0, 0, 0}}},
		{"item", dewey.Descendant, "quantity", index.Test(">=", "4"), [5][4]int{{40, 12, 12, 1}, {40, 12, 12, 1}, {8, 3, 3, 1}, {40, 12, 12, 1}, {0, 0, 0, 0}}},
		{"item", dewey.Self, "item", index.ValueTest{}, [5][4]int{{40, 40, 40, 1}, {40, 40, 40, 1}, {8, 8, 8, 1}, {40, 40, 40, 1}, {0, 0, 0, 0}}},
		{"item", dewey.Self, "name", index.ValueTest{}, [5][4]int{{40, 0, 0, 0}, {40, 0, 0, 0}, {8, 0, 0, 0}, {40, 0, 0, 0}, {0, 0, 0, 0}}},
		{"quantity", dewey.Self, "quantity", index.Test("<=", "2"), [5][4]int{{50, 29, 29, 1}, {50, 29, 29, 1}, {18, 10, 10, 1}, {50, 29, 29, 1}, {0, 0, 0, 0}}},
		{"item", dewey.FollowingSibling, "item", index.ValueTest{}, [5][4]int{{40, 0, 0, 0}, {40, 0, 0, 0}, {8, 0, 0, 0}, {40, 0, 0, 0}, {0, 0, 0, 0}}},
		{"regions", dewey.Descendant, "item", index.ValueTest{}, [5][4]int{{1, 1, 40, 40}, {1, 1, 40, 40}, {0, 0, 0, 0}, {1, 1, 40, 40}, {1, 1, 40, 40}}},
		{"regions", dewey.Child, "asia", index.ValueTest{}, [5][4]int{{1, 1, 1, 1}, {1, 1, 1, 1}, {0, 0, 0, 0}, {1, 1, 1, 1}, {1, 1, 1, 1}}},
		{"site", dewey.Descendant, "payment", index.ValueEq("Cash"), [5][4]int{{1, 1, 9, 9}, {1, 1, 9, 9}, {0, 0, 0, 0}, {1, 1, 9, 9}, {1, 1, 9, 9}}},
		{"site", dewey.Descendant, "name", index.Test("contains", "gold"), [5][4]int{{1, 1, 9, 9}, {1, 1, 9, 9}, {0, 0, 0, 0}, {1, 1, 9, 9}, {1, 1, 9, 9}}},
		{"site", dewey.Child, "regions", index.ValueTest{}, [5][4]int{{1, 1, 1, 1}, {1, 1, 1, 1}, {0, 0, 0, 0}, {1, 1, 1, 1}, {1, 1, 1, 1}}},
		{"europe", dewey.Descendant, "payment", index.ValueEq("Cash"), [5][4]int{{1, 1, 1, 1}, {1, 1, 1, 1}, {0, 0, 0, 0}, {1, 1, 1, 1}, {1, 1, 1, 1}}},
		{"europe", dewey.Child, "item", index.ValueTest{}, [5][4]int{{1, 1, 7, 7}, {1, 1, 7, 7}, {0, 0, 0, 0}, {1, 1, 7, 7}, {1, 1, 7, 7}}},
		{"europe", dewey.Descendant, "quantity", index.Test(">", "1"), [5][4]int{{1, 1, 6, 6}, {1, 1, 6, 6}, {0, 0, 0, 0}, {1, 1, 6, 6}, {1, 1, 6, 6}}},
		{"absent", dewey.Descendant, "item", index.ValueTest{}, [5][4]int{{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}}},
		{"item", dewey.Descendant, "absent", index.ValueTest{}, [5][4]int{{40, 0, 0, 0}, {40, 0, 0, 0}, {8, 0, 0, 0}, {40, 0, 0, 0}, {0, 0, 0, 0}}},
	}
	for _, c := range cases {
		for i, src := range srcs {
			w := c.want[i]
			want := index.PredicateStats{RootCount: w[0], Satisfying: w[1], TotalPairs: w[2], MaxTF: w[3]}
			if got := index.PredicateStatsOf(src, c.root, c.axis, c.tag, c.vt); got != want {
				t.Errorf("%s: %s %v %s %+v = %+v, want %+v", names[i], c.root, c.axis, c.tag, c.vt, got, want)
			}
		}
	}
}
