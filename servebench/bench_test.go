package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/xmark"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed: percentile must sort
		}
		return s
	}
	if v, err := percentile(samples(1000), 99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if _, err := percentile(samples(999), 99); err == nil {
		t.Fatal("p99 of 999 samples leaves 9 beyond it and must be refused")
	}
	if v, err := percentile(samples(200), 95); err != nil || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	if v, err := percentile(samples(21), 50); err != nil || v != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
	if _, err := percentile(samples(19), 50); err == nil {
		t.Fatal("p50 of 19 samples leaves 9 beyond it and must be refused")
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{3, 1, 2, 10}
	if m := median(xs); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if xs[0] != 3 {
		t.Fatal("median reordered its input")
	}
}

func TestCheckAnswersTieRule(t *testing.T) {
	want := []answer{{3, "1.2"}, {2, "1.5"}, {1, "1.7"}, {1, "1.9"}}
	cases := []struct {
		name string
		got  []answer
		ok   bool
	}{
		{"identical", []answer{{3, "1.2"}, {2, "1.5"}, {1, "1.7"}, {1, "1.9"}}, true},
		{"score within eps", []answer{{3 + 1e-12, "1.2"}, {2, "1.5"}, {1, "1.7"}, {1, "1.9"}}, true},
		{"other roots tying the k-th score", []answer{{3, "1.2"}, {2, "1.5"}, {1, "1.9"}, {1, "1.11"}}, true},
		{"perturbed score", []answer{{3, "1.2"}, {2 + 1e-6, "1.5"}, {1, "1.7"}, {1, "1.9"}}, false},
		{"swapped roots above the boundary", []answer{{3, "1.5"}, {2, "1.2"}, {1, "1.7"}, {1, "1.9"}}, false},
		{"missing answer", []answer{{3, "1.2"}, {2, "1.5"}, {1, "1.7"}}, false},
		{"extra answer", append(append([]answer(nil), want...), answer{1, "1.13"}), false},
	}
	for _, c := range cases {
		if err := checkAnswers(c.got, want); (err == nil) != c.ok {
			t.Errorf("%s: checkAnswers = %v, want ok=%v", c.name, err, c.ok)
		}
	}
	if err := checkAnswers(nil, nil); err != nil {
		t.Errorf("empty answers: %v", err)
	}
}

// TestOracleFiresOnCorruptedAnswers checks real engine answers against
// the oracle, then shows the check rejects the same answers with one
// score perturbed or two roots above the k-th score swapped.
func TestOracleFiresOnCorruptedAnswers(t *testing.T) {
	doc, err := xmark.Generate(xmark.Options{Seed: 7, Items: 300})
	if err != nil {
		t.Fatal(err)
	}
	db := whirlpool.FromDocument(doc)
	reqs := []request{
		{Query: "//item[./description/parlist and ./mailbox/mail/text]", K: 15},
		{Query: "//item[./mailbox/mail/text and ./description/parlist]", K: 5, Exact: true},
		{Query: "//person[./name contains 'gold' and ./profile/education = 'silk']", K: 10},
		{Query: "//open_auction[./current > 250 and ./bidder/increase < 10]", K: 30},
	}
	o, err := buildOracle(doc, reqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	swappable := false
	for i, r := range reqs {
		q := whirlpool.MustParseQuery(r.Query)
		res, err := db.TopK(q, r.options())
		if err != nil {
			t.Fatal(err)
		}
		body, err := render(res, q)
		if err != nil {
			t.Fatal(err)
		}
		if err := verify(body, o.want[i]); err != nil {
			t.Fatalf("%s: engine answers rejected: %v", r.Query, err)
		}
		var got queryResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Answers) == 0 {
			t.Fatalf("%s: no answers to corrupt", r.Query)
		}
		bad := append([]answer(nil), got.Answers...)
		bad[0].Score += 1e-6
		if checkAnswers(bad, o.want[i]) == nil {
			t.Errorf("%s: perturbed score accepted", r.Query)
		}
		boundary := got.Answers[len(got.Answers)-1].Score
		for j := 0; j+1 < len(got.Answers); j++ {
			a, b := got.Answers[j], got.Answers[j+1]
			if a.Score-boundary > scoreEps && b.Score-boundary > scoreEps && a.Dewey != b.Dewey {
				bad := append([]answer(nil), got.Answers...)
				bad[j].Dewey, bad[j+1].Dewey = b.Dewey, a.Dewey
				if checkAnswers(bad, o.want[i]) == nil {
					t.Errorf("%s: swapped roots at ranks %d/%d accepted", r.Query, j+1, j+2)
				}
				swappable = true
				break
			}
		}
	}
	if !swappable {
		t.Fatal("no request has two answers above its k-th score to swap")
	}
}

func TestParseProcCPU(t *testing.T) {
	// Fields 14 and 15 (utime, stime) are 250 and 50 ticks; the command
	// name holds a space and a parenthesis.
	stat := "4242 (whirl pool) d) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 50 0 0 20 0 9 0 12345 1000000 5000 18446744073709551615"
	got, err := parseProcCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Fatalf("cpu = %v, want %v", got, want)
	}
	if _, err := parseProcCPU("4242 (x) S 1 2"); err == nil {
		t.Fatal("truncated stat line accepted")
	}
	if self, err := processCPU(os.Getpid()); err != nil || self <= 0 {
		t.Fatalf("own cpu = %v, %v", self, err)
	}
}

func TestStreamsAreDeterministic(t *testing.T) {
	if !reflect.DeepEqual(hotStream(3), hotStream(3)) {
		t.Fatal("hot stream differs for one seed")
	}
	if reflect.DeepEqual(hotStream(3).order, hotStream(4).order) {
		t.Fatal("hot stream ignores its seed")
	}
	if !reflect.DeepEqual(churnStream(3, 9000), churnStream(3, 9000)) {
		t.Fatal("churn stream differs for one seed")
	}
	if reflect.DeepEqual(churnStream(3, 9000).reqs[:50], churnStream(4, 9000).reqs[:50]) {
		t.Fatal("churn stream ignores its seed")
	}
}

// TestHotStreamMix checks every block of the hot stream sends each
// distinct request once, and that the predicate-order variants share a
// canonical key with the paper's queries.
func TestHotStreamMix(t *testing.T) {
	s := hotStream(1)
	n := len(s.reqs)
	if n != 30 || len(s.order) != hotBlocks*n {
		t.Fatalf("%d distinct requests, stream of %d", n, len(s.order))
	}
	for b := 0; b < hotBlocks; b++ {
		seen := make([]bool, n)
		for _, id := range s.order[b*n : (b+1)*n] {
			if seen[id] {
				t.Fatalf("block %d repeats request %d", b, id)
			}
			seen[id] = true
		}
	}
	keys := map[string]bool{}
	for _, q := range hotBase() {
		keys[whirlpool.CanonicalQueryKey(whirlpool.MustParseQuery(q))] = true
	}
	if len(keys) != 3 {
		t.Fatalf("hot queries have %d canonical shapes, want 3 (Q1–Q3)", len(keys))
	}
	if s.reqs[0] != (request{Query: hotBase()[0], K: 5, Exact: true}) {
		t.Fatalf("setup probe is %+v, want Q1 exact k=5", s.reqs[0])
	}
}

// TestChurnOverflowsCaches checks that the churn requests a run sends
// (the first 1000, fewer than its 2 s warm-up sends) carry more distinct
// plan keys and engine keys than whirlpoold's 256-entry LRUs hold.
func TestChurnOverflowsCaches(t *testing.T) {
	s := churnStream(1, 9675)
	plans, engines := map[string]bool{}, map[string]bool{}
	for i := int64(0); i < 1000; i++ {
		r := s.reqs[s.at(i)]
		q, err := whirlpool.ParseQuery(r.Query)
		if err != nil {
			t.Fatalf("%s: %v", r.Query, err)
		}
		key := whirlpool.CanonicalQueryKey(q) + "|exact=" + strconv.FormatBool(r.Exact)
		plans[key] = true
		engines[key+"|k="+strconv.Itoa(r.K)] = true
	}
	if len(plans) <= cacheSize || len(engines) <= cacheSize {
		t.Fatalf("1000 churn requests carry %d plan keys and %d engine keys; want both above %d",
			len(plans), len(engines), cacheSize)
	}
	for _, r := range s.reqs {
		if _, err := whirlpool.ParseQuery(r.Query); err != nil {
			t.Fatalf("%s: %v", r.Query, err)
		}
		if r.K < 1 || r.K > 20 {
			t.Fatalf("k=%d outside [1, 20]", r.K)
		}
	}
}

// TestChurnVocabulary checks the value vocabulary churn draws from
// against a document internal/xmark generates.
func TestChurnVocabulary(t *testing.T) {
	var buf strings.Builder
	if err := xmark.Write(&buf, xmark.Options{Seed: 1, Items: 400}); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, w := range append(append([]string(nil), xmarkWords...), xmarkYesNo...) {
		if !strings.Contains(doc, w) {
			t.Errorf("vocabulary word %q never generated", w)
		}
	}
	for _, sec := range churnSections {
		if !strings.Contains(doc, "<"+sec.root) {
			t.Errorf("section element %q never generated", sec.root)
		}
	}
}

func TestSelfTimesSumToWall(t *testing.T) {
	spans := []span{
		{Name: "replay", Start: 0, End: 100, Parent: -1, Req: -1},
		{Name: "request", Start: 1, End: 50, Parent: 0, Req: 0},
		{Name: "pattern.parse", Start: 2, End: 5, Parent: 1, Req: 0},
		{Name: "core.run", Start: 5, End: 45, Parent: 1, Req: 0},
		{Name: "request", Start: 52, End: 99, Parent: 0, Req: 1},
		{Name: "core.run", Start: 53, End: 98, Parent: 4, Req: 1},
	}
	self := selfTimes(spans)
	want := []time.Duration{100 - 49 - 47, 49 - 3 - 40, 3, 40, 47 - 45, 45}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	layers := map[string]time.Duration{"pattern.parse": 3, "core.run": 85}
	if err := checkSpanSum(layers, self[0]+self[1]+self[4], 100); err != nil {
		t.Fatal(err)
	}
	if err := checkSpanSum(layers, 0, 100); err == nil {
		t.Fatal("a gap in the span tree went unnoticed")
	}
}

// TestBenchmarkJSONMatches checks BENCHMARK.json names exactly the
// workloads and metrics the benchmark reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %v, benchmark has %d workloads", names, len(workloads))
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			if m.Name != defs[i].name || m.Unit != defs[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), benchmark %s (%s)",
					kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}
