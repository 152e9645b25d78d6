package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro"
	"repro/internal/lru"
)

// replayBlocks and churnReplay size the replay's request prefix: three
// rounds of the hot request set, or a churn prefix long enough to cycle
// the plan and engine caches several times.
const (
	replayBlocks = 3
	churnReplay  = 2000
)

// replayEntry is one cached engine, mirroring whirlpoold's cache entry.
type replayEntry struct {
	eng     *whirlpool.Engine
	sharded *whirlpool.ShardedEngine
	q       *whirlpool.Query
}

func (e *replayEntry) run(ctx context.Context) (*whirlpool.Result, error) {
	if e.sharded != nil {
		return e.sharded.RunContext(ctx)
	}
	return e.eng.RunContext(ctx)
}

// replayDB is the database the replay serves from, opened the way the
// daemon boots for the workload.
type replayDB struct {
	db  *whirlpool.Database
	sdb *whirlpool.ShardedDatabase
}

func (r *replayDB) planner() *whirlpool.Planner {
	if r.sdb != nil {
		return r.sdb.NewPlanner(cacheSize)
	}
	return r.db.NewPlanner(cacheSize)
}

// passResult is what one replay pass measured.
type passResult struct {
	wall   time.Duration
	bodies [][]byte // rendered responses, stream order
	ids    []int    // distinct-request index of each response

	stats        whirlpool.Stats // summed over the pass
	planMisses   int64
	engineMisses int64
	skewSum      float64
	skewRuns     int
	workersPeak  int
	gc           gcDelta
}

// gcDelta is the change in the runtime's GC counters over a pass.
type gcDelta struct {
	cycles, pauseNS, allocBytes, allocs uint64
}

func readGC() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// replayPass sends reqs through the facade's public calls in order,
// with fresh plan and engine caches, as whirlpoold handles a /query:
// parse, plan, engine lookup or build, run, and response rendering.
// With tr enabled each call is a span and sink receives engine events.
func replayPass(rdb *replayDB, s *stream, n int, tr *tracer, sink *countSink) (*passResult, error) {
	ctx := context.Background()
	planner := rdb.planner()
	engines := lru.New[string, *replayEntry](cacheSize)
	res := &passResult{}
	runtime.GC()
	before := readGC()
	start := time.Now()
	root := tr.begin("replay", -1, -1)
	for i := 0; i < n; i++ {
		id := s.at(int64(i))
		req := s.reqs[id]
		sp := tr.begin("request", root, i)

		c := tr.begin("pattern.parse", sp, i)
		q, err := whirlpool.ParseQuery(req.Query)
		tr.end(c, false)
		if err != nil {
			return nil, err
		}
		opts := req.options()
		c = tr.begin("planner.plan", sp, i)
		plan, hit, err := planner.PlanFor(q, opts.Relax, whirlpool.NormSparse)
		tr.end(c, !hit)
		if err != nil {
			return nil, err
		}
		opts.Plan = plan
		if tr.on {
			opts.Trace = sink
		}
		key := plan.Key + "|k=" + strconv.Itoa(req.K)
		c = tr.begin("core.engine", sp, i)
		ent, hit, err := engines.GetOrCreate(key, func() (*replayEntry, error) {
			if rdb.sdb != nil {
				e, err := rdb.sdb.NewEngine(q, opts)
				return &replayEntry{sharded: e, q: plan.Query}, err
			}
			e, err := rdb.db.NewEngine(q, opts)
			return &replayEntry{eng: e, q: plan.Query}, err
		})
		tr.end(c, !hit)
		if err != nil {
			return nil, err
		}
		if !hit {
			res.engineMisses++
		}

		c = tr.begin("core.run", sp, i)
		out, err := ent.run(ctx)
		tr.end(c, false)
		if err != nil {
			return nil, err
		}

		c = tr.begin("render", sp, i)
		body, err := render(out, ent.q)
		tr.end(c, false)
		if err != nil {
			return nil, err
		}
		tr.end(sp, false)

		res.bodies = append(res.bodies, body)
		res.ids = append(res.ids, id)
		addStats(&res.stats, out.Stats)
		if ent.sharded != nil && sink != nil {
			_, peak := ent.sharded.LastRunWorkers()
			res.workersPeak = max(res.workersPeak, peak)
			if skew, ok := sink.takeSkew(); ok {
				res.skewSum += skew
				res.skewRuns++
			}
		}
	}
	tr.end(root, false)
	res.wall = time.Since(start)
	after := readGC()
	res.gc = gcDelta{
		cycles:     uint64(after.NumGC - before.NumGC),
		pauseNS:    after.PauseTotalNs - before.PauseTotalNs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		allocs:     after.Mallocs - before.Mallocs,
	}
	res.planMisses = planner.Stats().Misses
	return res, nil
}

func addStats(sum *whirlpool.Stats, s whirlpool.Stats) {
	sum.ServerOps += s.ServerOps
	sum.JoinComparisons += s.JoinComparisons
	sum.MatchesCreated += s.MatchesCreated
	sum.Pruned += s.Pruned
	sum.PrunedRemote += s.PrunedRemote
	sum.Steals += s.Steals
	sum.StolenMatches += s.StolenMatches
}

// renderedAnswer and renderedResponse reproduce whirlpoold's /query
// response shape, so render does the daemon's encoding work.
type renderedAnswer struct {
	Score    float64           `json:"score"`
	Path     string            `json:"path"`
	Dewey    string            `json:"dewey"`
	Bindings map[string]string `json:"bindings,omitempty"`
}

type renderedResponse struct {
	Answers      []renderedAnswer `json:"answers"`
	ServerOps    int64            `json:"server_ops"`
	Matches      int64            `json:"matches_created"`
	Pruned       int64            `json:"pruned"`
	PrunedRemote int64            `json:"pruned_remote,omitempty"`
	TookMS       float64          `json:"took_ms"`
	Cache        string           `json:"cache"`
}

// render renders a result as whirlpoold does: root Path and Dewey,
// "nodeID:tag" bindings, JSON-encoded.
func render(res *whirlpool.Result, q *whirlpool.Query) ([]byte, error) {
	resp := renderedResponse{
		Answers:      make([]renderedAnswer, 0, len(res.Answers)),
		ServerOps:    res.Stats.ServerOps,
		Matches:      res.Stats.MatchesCreated,
		Pruned:       res.Stats.Pruned,
		PrunedRemote: res.Stats.PrunedRemote,
		TookMS:       float64(res.Stats.Duration.Microseconds()) / 1000,
		Cache:        "hit",
	}
	for _, a := range res.Answers {
		ra := renderedAnswer{Score: a.Score, Path: a.Root.Path(), Dewey: a.Root.ID.String(), Bindings: map[string]string{}}
		for id, b := range a.Bindings {
			if b == nil || id == 0 {
				continue
			}
			ra.Bindings[strconv.Itoa(id)+":"+q.Nodes[id].Tag] = b.ID.String()
		}
		resp.Answers = append(resp.Answers, ra)
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}

// traceReplay opens the corpus in-process the way the daemon boots,
// measures first touch, replays the first requests of the stream once
// untraced and once traced, checks every replayed answer against the
// oracle, writes the spans to dir, and returns the per-layer metrics
// with the checks' outcome.
func traceReplay(w workload, c *corpus, s *stream, o *oracle, dir string) (map[string]float64, *loadResult, error) {
	tr := newTracer(true)
	m := map[string]float64{}
	rdb := &replayDB{}
	var err error
	boot := tr.begin("boot", -1, -1)
	if w.snapshot {
		sp := tr.begin("store.open", boot, -1)
		rdb.db, err = whirlpool.OpenSnapshot(c.snapPath)
		tr.end(sp, false)
		if err != nil {
			return nil, nil, err
		}
		defer rdb.db.Close()
		m["store.open_ms"] = ms(tr.spans[sp].dur())
	} else {
		sp := tr.begin("xmltree.load", boot, -1)
		rdb.db, err = whirlpool.LoadFile(c.xmlPath)
		tr.end(sp, false)
		if err != nil {
			return nil, nil, err
		}
		m["xmltree.load_s"] = tr.spans[sp].dur().Seconds()
		sp = tr.begin("synopsis.build", boot, -1)
		rdb.db.Synopsis()
		tr.end(sp, false)
		m["synopsis.build_ms"] = ms(tr.spans[sp].dur())
	}
	if w.shards > 1 {
		sp := tr.begin("shard.layout", boot, -1)
		rdb.sdb, err = rdb.db.Shard(w.shards)
		tr.end(sp, false)
		if err != nil {
			return nil, nil, err
		}
		m["shard.layout_ms"] = ms(tr.spans[sp].dur())
	}
	tr.end(boot, false)
	if w.snapshot {
		touch, err := firstTouch(rdb, s)
		if err != nil {
			return nil, nil, err
		}
		m["store.first_touch_ms"] = ms(touch)
	}

	n := replayBlocks * len(s.reqs)
	if w.churn {
		n = churnReplay
	}
	plain, err := replayPass(rdb, s, n, newTracer(false), nil)
	if err != nil {
		return nil, nil, err
	}
	sink := &countSink{}
	traced, err := replayPass(rdb, s, n, tr, sink)
	if err != nil {
		return nil, nil, err
	}

	checked := &loadResult{}
	for _, p := range []*passResult{plain, traced} {
		for i, body := range p.bodies {
			checked.record("replay "+s.reqs[p.ids[i]].Query, verify(body, o.want[p.ids[i]]))
		}
	}
	if err := writeSpans(filepath.Join(dir, "spans.jsonl"), tr.spans); err != nil {
		return nil, nil, fmt.Errorf("writing spans: %w", err)
	}
	if err := replayMetrics(m, tr.spans, traced, plain, sink, n); err != nil {
		return nil, nil, err
	}
	return m, checked, nil
}

// firstTouch runs the stream's first request four times on a freshly
// opened database and returns how much longer the first run took than
// the median of the other three.
func firstTouch(rdb *replayDB, s *stream) (time.Duration, error) {
	req := s.reqs[s.at(0)]
	q, err := whirlpool.ParseQuery(req.Query)
	if err != nil {
		return 0, err
	}
	opts := req.options()
	plan, _, err := rdb.planner().PlanFor(q, opts.Relax, whirlpool.NormSparse)
	if err != nil {
		return 0, err
	}
	opts.Plan = plan
	ent := &replayEntry{q: plan.Query}
	if rdb.sdb != nil {
		ent.sharded, err = rdb.sdb.NewEngine(q, opts)
	} else {
		ent.eng, err = rdb.db.NewEngine(q, opts)
	}
	if err != nil {
		return 0, err
	}
	var took [4]time.Duration
	for i := range took {
		start := time.Now()
		if _, err := ent.run(context.Background()); err != nil {
			return 0, err
		}
		took[i] = time.Since(start)
	}
	warm := median([]float64{float64(took[1]), float64(took[2]), float64(took[3])})
	return took[0] - time.Duration(warm), nil
}

// replayMetrics derives the per-layer metrics from the traced pass's
// spans and counters, the untraced pass's wall and GC counters, and
// the engine sink.
func replayMetrics(m map[string]float64, spans []span, traced, plain *passResult, sink *countSink, n int) error {
	self := selfTimes(spans)
	layers := map[string]time.Duration{}
	var unattributed, wall time.Duration
	var planMiss, planHit, engMiss time.Duration
	var planMisses, planHits int
	for i, sp := range spans {
		if sp.Req < 0 && sp.Name != "replay" {
			continue // boot spans lie outside the replay
		}
		switch sp.Name {
		case "replay":
			wall = sp.dur()
			unattributed += self[i]
		case "request":
			unattributed += self[i]
		default:
			layers[sp.Name] += self[i]
		}
		switch {
		case sp.Name == "planner.plan" && sp.Miss:
			planMiss += sp.dur()
			planMisses++
		case sp.Name == "planner.plan":
			planHit += sp.dur()
			planHits++
		case sp.Name == "core.engine" && sp.Miss:
			engMiss += sp.dur()
		}
	}
	if err := checkSpanSum(layers, unattributed, wall); err != nil {
		return err
	}
	q := float64(n)
	m["pattern.parse_us"] = us(layers["pattern.parse"]) / q
	m["planner.plan_us_per_miss"] = perCount(us(planMiss), planMisses)
	m["planner.plan_us_per_hit"] = perCount(us(planHit), planHits)
	m["planner.miss_ratio"] = float64(traced.planMisses) / q
	m["core.engine_build_us_per_miss"] = perCount(us(engMiss), int(traced.engineMisses))
	m["core.run_ms_per_query"] = ms(layers["core.run"]) / q
	m["render.us_per_query"] = us(layers["render"]) / q
	m["trace.unattributed_frac"] = float64(unattributed) / float64(wall)
	m["trace.overhead_frac"] = float64(traced.wall)/float64(plain.wall) - 1

	st := traced.stats
	m["core.server_ops_per_query"] = float64(st.ServerOps) / q
	m["core.join_comparisons_per_query"] = float64(st.JoinComparisons) / q
	m["core.matches_created_per_query"] = float64(st.MatchesCreated) / q
	m["core.pruned_frac"] = ratio(st.Pruned, st.MatchesCreated)
	m["core.useful_frac"] = ratio(sink.completed.Load(), st.MatchesCreated)
	m["core.route_decisions_per_query"] = float64(sink.routes.Load()) / q
	m["core.threshold_updates_per_query"] = float64(sink.thresholds.Load()) / q
	m["core.peak_queue_depth"] = float64(sink.peakDepth.Load())

	if traced.skewRuns > 0 {
		m["shard.skew"] = traced.skewSum / float64(traced.skewRuns)
		m["shard.pruned_remote_frac"] = ratio(st.PrunedRemote, st.Pruned)
		m["shard.steals_per_query"] = float64(st.Steals) / q
		m["shard.stolen_frac"] = ratio(st.StolenMatches, st.ServerOps)
		m["shard.workers_peak"] = float64(traced.workersPeak)
	}

	g := plain.gc
	m["gc.cycles_per_query"] = float64(g.cycles) / q
	m["gc.pause_us_per_query"] = float64(g.pauseNS) / 1e3 / q
	m["gc.alloc_bytes_per_query"] = float64(g.allocBytes) / q
	m["gc.allocs_per_query"] = float64(g.allocs) / q
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func perCount(total float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
