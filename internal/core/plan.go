package core

import (
	"fmt"
	"sort"

	"repro/internal/dewey"
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
	"repro/internal/score"
)

// PlanStats supplies exact per-predicate statistics from a corpus
// structure synopsis (internal/synopsis implements it), so plans can be
// compiled without touching the index — and, on a sharded corpus,
// without fanning a probe out to every shard. ok must be false when the
// source cannot answer the (anchor, axis, tag) combination; the
// compiler then falls back to an index probe.
type PlanStats interface {
	Predicate(anchorTag string, axis dewey.Axis, tag string) (index.PredicateStats, bool)
}

// Plan is a compiled, immutable query plan: everything engine
// construction needs that depends only on (query shape, relaxation
// mode, corpus statistics) — server plans, a scorer, per-server routing
// statistics and a cost-based static order. Plans are safe to share
// across engines and goroutines and to cache under their Key; New
// accepts one via Config.Plan and skips the corresponding per-engine
// work.
type Plan struct {
	// Key is the canonical cache key the plan was compiled under
	// (pattern.CanonicalKey plus scoring/relaxation qualifiers); purely
	// informational for the engine.
	Key string
	// Query is the pattern the plan was compiled for. Engines built
	// from the plan must evaluate a query with the same String().
	Query *pattern.Query
	// Relax is the relaxation mode the server plans encode.
	Relax relax.Relaxation
	// Plans are the per-node server plans (Algorithm 1).
	Plans []*relax.ServerPlan
	// Scorer is the scorer compiled with the plan. The engine does not
	// read it from here — whirlpool's facade passes it through
	// Config.Scorer — but caching it beside the plans is what makes a
	// cache hit skip scorer construction too.
	Scorer score.Scorer
	// Fanout[id] is the mean number of node-id extensions per
	// satisfying root; SatisfyProb[id] the fraction of roots with at
	// least one. Index 0 is unused.
	Fanout      []float64
	SatisfyProb []float64
	// Order is the cost-based static server order (fewest expected
	// alive matches first), used when Config.Order is nil.
	Order []int
}

// CompilePlan builds a Plan for q under relaxation r. Statistics come
// from stats where it can answer (value-free predicates); only the rest
// probe ix. The resulting engine behavior is identical to New without a
// plan — same server plans, same statistics — except that the static
// order defaults to the cost-based one instead of ascending node IDs.
func CompilePlan(ix index.Source, stats PlanStats, q *pattern.Query, r relax.Relaxation, scorer score.Scorer, key string) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{
		Key:         key,
		Query:       q,
		Relax:       r,
		Plans:       relax.BuildPlans(q, r),
		Scorer:      scorer,
		Fanout:      make([]float64, q.Size()),
		SatisfyProb: make([]float64, q.Size()),
	}
	rootTag := q.Root().Tag
	for id := 1; id < q.Size(); id++ {
		axis := p.Plans[id].ProbeAxis()
		vt := index.Test(q.Nodes[id].ValueOp, q.Nodes[id].Value)
		var st index.PredicateStats
		resolved := false
		if stats != nil && vt.Any() {
			st, resolved = stats.Predicate(rootTag, axis, q.Nodes[id].Tag)
		}
		if !resolved {
			st = index.PredicateStatsOf(ix, rootTag, axis, q.Nodes[id].Tag, vt)
		}
		p.Fanout[id] = st.MeanFanout()
		p.SatisfyProb[id] = st.Selectivity()
	}
	p.Order = orderByAlive(p.SatisfyProb, p.Fanout, r)
	return p, nil
}

// serverPlans returns the compiled server plans, nil-safe so callers
// can try a possibly-absent plan first and fall back to BuildPlans.
func (p *Plan) serverPlans() []*relax.ServerPlan {
	if p == nil {
		return nil
	}
	return p.Plans
}

// checkAgainst verifies the plan is usable for (q, cfg): compiled for
// the same pattern and relaxation mode.
func (p *Plan) checkAgainst(q *pattern.Query, cfg *Config) error {
	if p.Relax != cfg.Relax {
		return fmt.Errorf("core: plan compiled for relaxation %v, config wants %v", p.Relax, cfg.Relax)
	}
	if len(p.Plans) != q.Size() || len(p.Fanout) != q.Size() || len(p.SatisfyProb) != q.Size() {
		return fmt.Errorf("core: plan sized for %d query nodes, query has %d", len(p.Plans), q.Size())
	}
	if p.Query != q && p.Query.String() != q.String() {
		return fmt.Errorf("core: plan compiled for %s, engine query is %s", p.Query, q)
	}
	return nil
}

// orderByAlive sorts the non-root servers by increasing expected alive
// partial matches per input match — selectivity × fanout, plus the
// outer-join null extension under leaf deletion — tie-breaking on node
// ID so the order is deterministic.
func orderByAlive(satisfyProb, fanout []float64, r relax.Relaxation) []int {
	type cost struct {
		id    int
		alive float64
	}
	costs := make([]cost, 0, len(satisfyProb)-1)
	for id := 1; id < len(satisfyProb); id++ {
		alive := satisfyProb[id] * fanout[id]
		if r.Has(relax.LeafDeletion) {
			alive += 1 - satisfyProb[id]
		}
		costs = append(costs, cost{id: id, alive: alive})
	}
	sort.SliceStable(costs, func(i, j int) bool {
		if costs[i].alive != costs[j].alive {
			return costs[i].alive < costs[j].alive
		}
		return costs[i].id < costs[j].id
	})
	order := make([]int, len(costs))
	for i, c := range costs {
		order[i] = c.id
	}
	return order
}
