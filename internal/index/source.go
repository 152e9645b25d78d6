package index

import (
	"repro/internal/dewey"
	"repro/internal/xmltree"
)

// Source is the access-path contract the engine, the scorers and the
// reference evaluators consume. The in-memory Index implements it, as
// do the mmapped snapshot's store.SnapshotReader and store.PartSource —
// the paper's observation that adaptivity pays off most "in scenarios
// where data is stored on disk" (Section 6.3.3) is exercised by
// swapping implementations. Statistics derive from these four methods:
// see PredicateStatsOf.
type Source interface {
	// Nodes returns all nodes with the given tag in document order.
	Nodes(tag string) []*xmltree.Node
	// NodesMatching returns the nodes with the tag whose values satisfy
	// vt, in document order.
	NodesMatching(tag string, vt ValueTest) []*xmltree.Node
	// CountTag returns the number of nodes with the tag.
	CountTag(tag string) int
	// AppendCandidates appends the tag nodes satisfying vt on the given
	// axis of anchor (Self, Child or Descendant) to dst in document
	// order and returns the extended slice; dst is typically a reused
	// scratch sliced to [:0], so hot probe loops allocate nothing in the
	// steady state. Implementations must not retain dst, and the
	// appended *xmltree.Node pointers remain valid after dst is reused.
	// The number appended is Definition 4.3's term frequency.
	AppendCandidates(dst []*xmltree.Node, anchor *xmltree.Node, axis dewey.Axis, tag string, vt ValueTest) []*xmltree.Node
}

var _ Source = (*Index)(nil)

// ShardedSource is an optional extension implemented by sources that are
// physically partitioned into disjoint shards (see internal/shard). Each
// sub-source covers one partition of the document forest: together the
// sub-sources' Nodes(rootTag) sets partition the whole source's, and
// within a sub-source every probe anchored at one of its own nodes
// returns exactly what the whole source would — subtrees are never split
// across sub-sources. Consumers that iterate all roots of a tag (the
// TFIDF statistics pass, per-shard engines) can therefore fan out across
// sub-sources and merge.
type ShardedSource interface {
	Source
	// ShardSources returns the partition, in shard order.
	ShardSources() []Source
}
