package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// span is one timed call at a layer boundary of the traced replay.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Req    int    `json:"req"`    // request sequence number, -1 outside requests
	Miss   bool   `json:"miss,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. A disabled tracer records nothing and
// reads no clock, so the untraced replay pays only the nil checks.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its index (-1 when disabled).
func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span i, marking it a cache miss when miss is set.
func (t *tracer) end(i int, miss bool) {
	if i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
	t.spans[i].Miss = miss
}

// selfTimes returns each span's duration minus the time its direct
// children cover. Children of one span never overlap (the replay is
// sequential), so the self times of a span tree sum to its root's
// duration.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// writeSpans writes the spans to path as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countSink is the engine TraceSink of the traced replay. It counts
// routing decisions, threshold updates and completed matches, tracks
// the deepest queue, and keeps the per-shard durations of the current
// sharded run so each query's shard skew can be read after it.
type countSink struct {
	routes, thresholds, completed atomic.Int64
	peakDepth                     atomic.Int64

	mu       sync.Mutex
	shardDur []int64 // µs, one per shard of the run in progress
}

func (c *countSink) RunStart(obs.RunInfo)     {}
func (c *countSink) RouteDecision(int64, int) { c.routes.Add(1) }
func (c *countSink) Threshold(float64)        { c.thresholds.Add(1) }
func (c *countSink) RunEnd(obs.RunSummary)    {}
func (c *countSink) QueueDepth(_ int, depth int) {
	for d := int64(depth); ; {
		cur := c.peakDepth.Load()
		if d <= cur || c.peakDepth.CompareAndSwap(cur, d) {
			return
		}
	}
}

func (c *countSink) MatchLifecycle(kind obs.Lifecycle, n int) {
	if kind == obs.MatchesCompleted {
		c.completed.Add(int64(n))
	}
}

func (c *countSink) ShardRun(_ int, sum obs.RunSummary) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shardDur = append(c.shardDur, sum.DurationUS)
}

// takeSkew returns the finished run's slowest over mean shard duration
// and clears the per-run record; ok is false for unsharded runs.
func (c *countSink) takeSkew() (skew float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	defer func() { c.shardDur = c.shardDur[:0] }()
	var maxD, sum int64
	for _, d := range c.shardDur {
		maxD = max(maxD, d)
		sum += d
	}
	if len(c.shardDur) == 0 || sum == 0 {
		return 0, false
	}
	return float64(maxD) * float64(len(c.shardDur)) / float64(sum), true
}

var _ interface {
	obs.TraceSink
	obs.ShardSink
} = (*countSink)(nil)

// checkSpanSum verifies that layer self times plus the unattributed
// remainder add up to the replay's wall time.
func checkSpanSum(layers map[string]time.Duration, unattributed, wall time.Duration) error {
	sum := unattributed
	for _, d := range layers {
		sum += d
	}
	if sum != wall {
		return fmt.Errorf("span self times sum to %v, replay wall is %v", sum, wall)
	}
	return nil
}
