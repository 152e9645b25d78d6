package core

import (
	"repro/internal/index"
	"repro/internal/pattern"
	"repro/internal/relax"
)

// CostBasedOrder chooses a static server order a priori from index
// statistics — the paper's suggestion that "for homogeneous data sets
// [static routing] might actually be the strategy of choice, where the
// sequence can be determined a priori in a cost-based manner" (Section
// 6.1.4). Servers are ordered by increasing expected number of partial
// matches they leave alive per input match (selectivity × fanout, plus
// the null extension for non-satisfying roots), the size-based analog of
// selectivity-ordered join plans.
func CostBasedOrder(ix index.Source, q *pattern.Query, r relax.Relaxation) []int {
	plans := relax.BuildPlans(q, r)
	rootTag := q.Root().Tag
	satisfyProb := make([]float64, q.Size())
	fanout := make([]float64, q.Size())
	for id := 1; id < q.Size(); id++ {
		st := index.PredicateStatsOf(ix, rootTag, plans[id].ProbeAxis(), q.Nodes[id].Tag, index.Test(q.Nodes[id].ValueOp, q.Nodes[id].Value))
		satisfyProb[id] = st.Selectivity()
		fanout[id] = st.MeanFanout()
	}
	return orderByAlive(satisfyProb, fanout, r)
}
