// Command servebench is the end-to-end serving benchmark of whirlpoold.
// It boots the real daemon as a separate process on a generated XMark
// corpus, drives it with a closed loop on one client connection,
// checks every answer against the naive oracle, and prints the
// end-to-end metrics; with -trace 1 it instead prints per-layer metrics
// read from the daemon's /metrics and from a traced in-process replay
// of the same request stream. See README.md for the workloads and the
// metrics, and run.sh for how to build and run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run reports, measured on the
// daemon with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"server_cpu_ms_per_query", "ms"},
	{"rss_mb", "MB"},
	{"ok_frac", "fraction"},
}

// perLayer are the metrics a -trace 1 run reports. A layer a workload
// does not pass through (shard.* off the sharded workload, store.* off
// snapshot boots, xmltree/synopsis off the XML boot) reads 0.
var perLayer = []metricDef{
	{"whirlpoold.engine_ms_per_query", "ms"},
	{"whirlpoold.planning_ms_per_query", "ms"},
	{"whirlpoold.overhead_ms_per_query", "ms"},
	{"whirlpoold.plan_cache_hit_ratio", "fraction"},
	{"whirlpoold.engine_cache_hit_ratio", "fraction"},
	{"whirlpoold.plan_cache_evictions_per_query", "count"},
	{"whirlpoold.response_bytes_per_query", "bytes"},
	{"pattern.parse_us", "us"},
	{"planner.plan_us_per_miss", "us"},
	{"planner.plan_us_per_hit", "us"},
	{"planner.miss_ratio", "fraction"},
	{"core.engine_build_us_per_miss", "us"},
	{"core.run_ms_per_query", "ms"},
	{"core.server_ops_per_query", "count"},
	{"core.join_comparisons_per_query", "count"},
	{"core.matches_created_per_query", "count"},
	{"core.pruned_frac", "fraction"},
	{"core.useful_frac", "fraction"},
	{"core.route_decisions_per_query", "count"},
	{"core.threshold_updates_per_query", "count"},
	{"core.peak_queue_depth", "count"},
	{"render.us_per_query", "us"},
	{"shard.skew", "ratio"},
	{"shard.pruned_remote_frac", "fraction"},
	{"shard.steals_per_query", "count"},
	{"shard.stolen_frac", "fraction"},
	{"shard.workers_peak", "count"},
	{"shard.layout_ms", "ms"},
	{"store.open_ms", "ms"},
	{"store.first_touch_ms", "ms"},
	{"xmltree.load_s", "s"},
	{"synopsis.build_ms", "ms"},
	{"gc.cycles_per_query", "count"},
	{"gc.pause_us_per_query", "us"},
	{"gc.alloc_bytes_per_query", "bytes"},
	{"gc.allocs_per_query", "count"},
	{"trace.unattributed_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// warmup is how long churn's closed loop runs before the measured
// window, so the caches reach their steady churn.
const warmup = 2 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	daemon   string
	work     string
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "workload: hot-items, churn or sharded-snapshot")
	flag.Int64Var(&c.seed, "seed", 1, "seed of the corpus and the request stream")
	flag.IntVar(&c.seconds, "seconds", 25, "length of the measured window in seconds")
	flag.IntVar(&c.trace, "trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	flag.StringVar(&c.daemon, "daemon", "", "path of the whirlpoold binary")
	flag.StringVar(&c.work, "work", "", "directory for the corpus, daemon logs and spans")
	flag.Parse()
	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
}

// runContext records the setup behind a run's numbers.
type runContext struct {
	Workload      string    `json:"workload"`
	NumCPU        int       `json:"nproc"`
	GOMAXPROCS    int       `json:"gomaxprocs"`
	GoVersion     string    `json:"go_version"`
	DocSeed       int64     `json:"doc_seed"`
	StreamSeed    int64     `json:"stream_seed"`
	DocBytes      int64     `json:"doc_bytes"`
	DocNodes      int       `json:"doc_nodes"`
	DocItems      int       `json:"doc_items"`
	DistinctReqs  int       `json:"distinct_requests"`
	DaemonArgs    []string  `json:"daemon_args"`
	SetupRuns     []float64 `json:"setup_runs_s"`
	HostProbeMS   []float64 `json:"host_probe_ms"`
	WindowS       float64   `json:"window_s"`
	PeakRSSMB     float64   `json:"peak_rss_mb"`
	LatencyN      int       `json:"latency_samples"`
	WindowFailed  int       `json:"window_failed"`
	FailedFrac    float64   `json:"failed_frac"`
	Failures      []string  `json:"failures,omitempty"`
	ReplayQueries int       `json:"replay_queries,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(c config) error {
	w, ok := workloads[c.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.seconds < 1 || (c.trace != 0 && c.trace != 1) || c.daemon == "" || c.work == "" {
		return errors.New("need -seconds ≥ 1, -trace 0 or 1, -daemon and -work")
	}
	dir := filepath.Join(c.work, w.name)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	docSeed, streamSeed := c.seed, c.seed
	ctx := runContext{
		Workload: w.name, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), DocSeed: docSeed, StreamSeed: streamSeed,
	}

	// Inputs, oracle answers and request bodies are prepared before any
	// daemon starts.
	corp, err := buildCorpus(dir, docSeed, w.snapshot)
	if err != nil {
		return err
	}
	ctx.DocBytes, ctx.DocNodes, ctx.DocItems = corp.xmlBytes, corp.doc.Size(), corp.items
	s := hotStream(streamSeed)
	probe := 0 // Q1 exact, k=5: the cheapest hot request
	if w.churn {
		s = churnStream(streamSeed, corp.items)
		probe = s.at(0)
	}
	ctx.DistinctReqs = len(s.reqs)
	o, err := buildOracle(corp.doc, s.reqs, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	corp.doc = nil
	runtime.GC()
	bodies, err := s.bodies()
	if err != nil {
		return err
	}
	t := &targets{s: s, bodies: bodies, o: o}
	// total counts every checked answer of the run.
	total := &loadResult{}

	// setup_s: exec to first correct answer, median over the boots; the
	// last boot serves the window.
	var d *daemon
	for b := 0; b < boots; b++ {
		if d != nil {
			d.stop()
		}
		start := time.Now()
		d, err = startDaemon(c.daemon, filepath.Join(dir, fmt.Sprintf("daemon-%d.log", b)), w, corp)
		if err != nil {
			return err
		}
		took, err := awaitFirstAnswer(d, start, bodies[probe], o.want[probe])
		if err != nil {
			d.stop()
			return err
		}
		total.record(s.reqs[probe].Query, nil)
		ctx.SetupRuns = append(ctx.SetupRuns, took.Seconds())
	}
	defer d.stop()
	ctx.DaemonArgs = d.args
	t.base = d.base

	ctx.HostProbeMS = append(ctx.HostProbeMS, hostProbe())
	if w.churn {
		total.merge(closedLoop(t, warmup))
	} else {
		total.merge(sendEach(t))
	}

	before, err := scrapeMetrics(d)
	if err != nil {
		return err
	}
	cpu0, err := processCPU(d.pid())
	if err != nil {
		return err
	}
	stopRSS := make(chan struct{})
	rssDone := sampleRSS(d.pid(), stopRSS)
	win := closedLoop(t, time.Duration(c.seconds)*time.Second)
	close(stopRSS)
	cpu1, err := processCPU(d.pid())
	if err != nil {
		return err
	}
	rss := <-rssDone
	if rss.err != nil {
		return rss.err
	}
	after, err := scrapeMetrics(d)
	if err != nil {
		return err
	}
	hwm, err := procStatusBytes(d.pid(), "VmHWM")
	if err != nil {
		return err
	}
	ctx.PeakRSSMB = float64(hwm) / (1 << 20)
	d.stop()
	ctx.HostProbeMS = append(ctx.HostProbeMS, hostProbe())
	total.merge(win)
	ctx.WindowS = win.wall.Seconds()
	ctx.LatencyN = len(win.latencies)
	ctx.WindowFailed = win.failed
	ctx.FailedFrac = float64(win.failed) / float64(max(win.attempted, 1))
	if win.answered == 0 {
		return fmt.Errorf("no correct answers in the window: %v", win.failures)
	}
	meanLatency := 0.0
	for _, l := range win.latencies {
		meanLatency += l
	}
	meanLatency /= float64(len(win.latencies))
	p50, err := percentile(win.latencies, 50)
	if err != nil {
		return err
	}
	p95, err := percentile(win.latencies, 95)
	if err != nil {
		return err
	}
	values := map[string]float64{
		"setup_s":                 median(ctx.SetupRuns),
		"qps":                     float64(win.answered) / win.wall.Seconds(),
		"latency_p50_ms":          p50,
		"latency_p95_ms":          p95,
		"server_cpu_ms_per_query": ms(cpu1-cpu0) / float64(win.answered),
		"rss_mb":                  median(rss.mb),
		"ok_frac":                 float64(win.answered) / float64(win.attempted),
	}
	defs := endToEnd
	if c.trace == 1 {
		defs = perLayer
		values = daemonLayers(before, after, meanLatency)
		layers, checked, err := traceReplay(w, corp, s, o, dir)
		if err != nil {
			return err
		}
		for k, v := range layers {
			values[k] = v
		}
		total.merge(checked)
		ctx.ReplayQueries = checked.attempted / 2
	}
	ctx.Failures = total.failures

	res := result{Correct: total.failed == 0, Attempted: total.attempted, Failed: total.failed, Metrics: map[string]metricValue{}}
	for _, m := range defs {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	ctxLine, err := json.Marshal(map[string]runContext{"context": ctx})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "context.json"), ctxLine, 0o644); err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", ctxLine, resLine)
	return nil
}

// daemonLayers derives the whirlpoold.* metrics from the /metrics
// deltas over the window and the client's mean latency.
func daemonLayers(before, after metricsSnapshot, meanLatencyMS float64) map[string]float64 {
	delta := func(name string) float64 { return after.value(name) - before.value(name) }
	hist := func(name string) (count, sum float64) {
		c0, s0 := before.hist(name)
		c1, s1 := after.hist(name)
		return c1 - c0, s1 - s0
	}
	queries, engineUS := hist("whirlpoold_query_duration_us")
	_, planUS := hist("whirlpoold_planning_duration_us")
	respN, respBytes := hist("whirlpoold_http_response_bytes{endpoint=query}")
	planHits, planMisses := delta("whirlpoold_plan_cache_hits_total"), delta("whirlpoold_plan_cache_misses_total")
	engHits, engMisses := delta("whirlpoold_engine_cache_hits_total"), delta("whirlpoold_engine_cache_misses_total")
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	engineMS := div(engineUS, queries) / 1000
	planMS := div(planUS, queries) / 1000
	return map[string]float64{
		"whirlpoold.engine_ms_per_query":            engineMS,
		"whirlpoold.planning_ms_per_query":          planMS,
		"whirlpoold.overhead_ms_per_query":          meanLatencyMS - planMS - engineMS,
		"whirlpoold.plan_cache_hit_ratio":           div(planHits, planHits+planMisses),
		"whirlpoold.engine_cache_hit_ratio":         div(engHits, engHits+engMisses),
		"whirlpoold.plan_cache_evictions_per_query": div(delta("whirlpoold_plan_cache_evictions"), queries),
		"whirlpoold.response_bytes_per_query":       div(respBytes, respN),
	}
}
