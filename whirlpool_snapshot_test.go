package whirlpool

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// snapshotEquivalenceQueries are the probe queries for the
// snapshot-vs-build property: a structural query, a value predicate and
// a deep disjunction, covering tag postings, value postings and the
// relaxation machinery.
var snapshotEquivalenceQueries = []string{
	"//item[./description/parlist and ./mailbox/mail/text]",
	"//item[./payment = 'Creditcard']",
	"//item[./description/parlist/listitem and ./shipping]",
}

// TestSnapshotAnswersMatchBuild is the answer-equivalence property for
// the mmap snapshot: for every algorithm in {Whirlpool-S, Whirlpool-M},
// relaxation mode in {exact, relaxed} and shard count in {1, 8}, a
// database served from an mmapped snapshot must return the same ranked
// answers (root ordinals and scores) as one built from the XML. Runs
// under -race in CI, so it also exercises the lazy node-slab
// materialization and shard assembly from mapped layouts concurrently.
func TestSnapshotAnswersMatchBuild(t *testing.T) {
	built, err := GenerateXMark(XMarkOptions{Seed: 3, Items: 120})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "site.wpxs")
	if err := built.SaveSnapshot(path, SnapshotOptions{Shards: []int{1, 8}, KeywordScopes: []string{"item"}}); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if !snap.SnapshotBacked() {
		t.Fatal("OpenSnapshot database not snapshot-backed")
	}

	algorithms := []Algorithm{WhirlpoolS, WhirlpoolM}
	for _, alg := range algorithms {
		for _, relaxed := range []bool{false, true} {
			for _, shards := range []int{1, 8} {
				mode := "exact"
				opts := Exact(10)
				if relaxed {
					mode = "relaxed"
					opts = Approximate(10)
				}
				opts.Algorithm = alg
				opts.Shards = shards
				name := fmt.Sprintf("%v/%s/shards-%d", alg, mode, shards)
				t.Run(name, func(t *testing.T) {
					for _, qs := range snapshotEquivalenceQueries {
						q := MustParseQuery(qs)
						want, err := built.TopK(q, opts)
						if err != nil {
							t.Fatal(err)
						}
						got, err := snap.TopK(q, opts)
						if err != nil {
							t.Fatal(err)
						}
						var scores map[int]float64
						if shards > 1 {
							scores = rootScores(t, built, q, opts)
						}
						compareAnswers(t, qs, want, got, 1e-9, scores)
					}
				})
			}
		}
	}
}

// compareAnswers checks got against want, two evaluations of query qs
// over the same document, with scores equal within eps. With scores nil
// the runs must agree rank by rank. Sharded runs pass scores, every
// root's best score from rootScores, and are held to DESIGN.md's tie
// contract instead ("Tie pruning"): a match that only ties the k-th
// score is pruned, so which of several roots tied at the k-th score is
// reported depends on the shard schedule. Scores must still agree at
// every rank and roots strictly above the k-th score, and every root
// reported at the k-th score must really score that.
func compareAnswers(t *testing.T, qs string, want, got *Result, eps float64, scores map[int]float64) {
	t.Helper()
	if len(got.Answers) != len(want.Answers) {
		t.Fatalf("%s: %d answers, want %d", qs, len(got.Answers), len(want.Answers))
	}
	if len(want.Answers) == 0 {
		return
	}
	boundary := want.Answers[len(want.Answers)-1].Score
	for i, w := range want.Answers {
		g := got.Answers[i]
		if math.Abs(g.Score-w.Score) > eps {
			t.Fatalf("%s: answer %d score %v, want %v", qs, i, g.Score, w.Score)
		}
		if scores == nil || w.Score > boundary+eps {
			if g.Root.Ord != w.Root.Ord {
				t.Fatalf("%s: answer %d root ord %d, want %d", qs, i, g.Root.Ord, w.Root.Ord)
			}
			continue
		}
		if s, ok := scores[g.Root.Ord]; !ok || math.Abs(s-boundary) > eps {
			t.Fatalf("%s: answer %d root ord %d reported at the k-th score %v, but its best score is %v (found %v)",
				qs, i, g.Root.Ord, boundary, s, ok)
		}
	}
}

// rootScores returns every root's best score for q under opts, keyed by
// root ordinal, from one unsharded engine whose k covers every
// candidate root, so no root's best match is pruned.
func rootScores(t *testing.T, db *Database, q *Query, opts Options) map[int]float64 {
	t.Helper()
	opts.Shards, opts.Plan = 0, nil
	opts.K = db.ix.CountTag(q.Root().Tag)
	res, err := db.TopK(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	scores := make(map[int]float64, len(res.Answers))
	for _, a := range res.Answers {
		scores[a.Root.Ord] = a.Score
	}
	return scores
}

// TestSnapshotKeywordMatchesBuild checks the persisted keyword index
// answers keyword queries identically to one built from the tree walk.
func TestSnapshotKeywordMatchesBuild(t *testing.T) {
	built, err := GenerateXMark(XMarkOptions{Seed: 3, Items: 120})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "site.wpxs")
	if err := built.SaveSnapshot(path, SnapshotOptions{KeywordScopes: []string{"item"}}); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()

	wantIx := built.BuildKeywordIndex("item")
	gotIx := snap.BuildKeywordIndex("item")
	for _, query := range []string{"gold silver", "shipping will", "creditcard"} {
		want := wantIx.TopKScan(query, 5)
		got := gotIx.TopKScan(query, 5)
		if len(got) != len(want) {
			t.Fatalf("%q: %d answers != %d", query, len(got), len(want))
		}
		for i := range want {
			if got[i].Node.Ord != want[i].Node.Ord {
				t.Fatalf("%q: answer %d scope %d != %d", query, i, got[i].Node.Ord, want[i].Node.Ord)
			}
			if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
				t.Fatalf("%q: answer %d score %v != %v", query, i, got[i].Score, want[i].Score)
			}
		}
	}
}

// TestShardUsesPersistedLayout checks Database.Shard on a snapshot-backed
// database serves from the snapshot's persisted layout — per-part
// sources over the mapped postings, no re-partitioning — and returns the
// instance Options.Shards evaluates on.
func TestShardUsesPersistedLayout(t *testing.T) {
	built, err := GenerateXMark(XMarkOptions{Seed: 3, Items: 60})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "site.wpxs")
	if err := built.SaveSnapshot(path, SnapshotOptions{Shards: []int{4}}); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	sdb, err := snap.Shard(4)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range sdb.corpus.ShardSources()[:len(sdb.corpus.Parts())] {
		if _, ok := src.(*store.PartSource); !ok {
			t.Fatalf("shard %d served by %T, want the snapshot's *store.PartSource", i, src)
		}
	}
	if cached, err := snap.shardedFor(4); err != nil || cached != sdb {
		t.Fatalf("Shard(4) and Options.Shards = 4 use different partitions (err %v)", err)
	}
}
