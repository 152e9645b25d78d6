package main

import (
	"fmt"
	"math"
	"sync"

	"repro"
	"repro/internal/index"
	"repro/internal/naive"
	"repro/internal/relax"
	"repro/internal/score"
	"repro/internal/xmltree"
)

// answer is the part of a /query answer the oracle check compares.
type answer struct {
	Score float64 `json:"score"`
	Dewey string  `json:"dewey"`
}

// scoreEps is the score tolerance of the answer check, the one
// internal/shard's equivalence tests use.
const scoreEps = 1e-9

// checkAnswers compares got with the oracle's top-k want. Scores must
// agree within scoreEps at every rank. Answers scoring strictly above
// the k-th score must name the same roots in the same order; which of
// several roots tying the k-th score fills the last slots is left open,
// because the engines may prune any of them.
func checkAnswers(got, want []answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, oracle has %d", len(got), len(want))
	}
	if len(want) == 0 {
		return nil
	}
	for i := range want {
		if math.Abs(got[i].Score-want[i].Score) > scoreEps {
			return fmt.Errorf("rank %d score %v, oracle %v", i+1, got[i].Score, want[i].Score)
		}
	}
	boundary := want[len(want)-1].Score
	for i := range want {
		if want[i].Score > boundary+scoreEps && got[i].Dewey != want[i].Dewey {
			return fmt.Errorf("rank %d root %s, oracle %s", i+1, got[i].Dewey, want[i].Dewey)
		}
	}
	return nil
}

// oracle holds the expected answers of every distinct request.
type oracle struct {
	want [][]answer // want[i] answers reqs[i]
}

// oracleKey identifies one naive evaluation: requests that share a
// canonical query shape and mode share it, truncated to their k.
type oracleKey struct {
	shape string
	exact bool
}

// buildOracle evaluates every distinct request with naive.TopK over an
// in-memory index of doc, once per canonical shape and mode at the
// largest k any request asks for, on workers goroutines.
func buildOracle(doc *xmltree.Document, reqs []request, workers int) (*oracle, error) {
	ix := index.Build(doc)
	type job struct {
		query string
		exact bool
		k     int
	}
	jobs := make(map[oracleKey]*job)
	keys := make([]oracleKey, len(reqs))
	for i, r := range reqs {
		q, err := whirlpool.ParseQuery(r.Query)
		if err != nil {
			return nil, err
		}
		keys[i] = oracleKey{whirlpool.CanonicalQueryKey(q), r.Exact}
		j := jobs[keys[i]]
		if j == nil {
			j = &job{query: r.Query, exact: r.Exact}
			jobs[keys[i]] = j
		}
		j.k = max(j.k, r.K)
	}
	results := make(map[oracleKey][]answer, len(jobs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	queue := make(chan oracleKey, len(jobs)) // holds every job, so the sends below never block
	for k := range jobs {
		queue <- k
	}
	close(queue)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range queue {
				j := jobs[key]
				q := whirlpool.MustParseQuery(j.query)
				rel := relax.All
				if j.exact {
					rel = relax.None
				}
				top := naive.TopK(ix, q, rel, score.NewTFIDF(ix, q, score.Sparse), j.k)
				out := make([]answer, len(top))
				for i, a := range top {
					out[i] = answer{Score: a.Score, Dewey: a.Root.ID.String()}
				}
				mu.Lock()
				results[key] = out
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	o := &oracle{want: make([][]answer, len(reqs))}
	for i, r := range reqs {
		all := results[keys[i]]
		o.want[i] = all[:min(r.K, len(all))]
	}
	return o, nil
}
