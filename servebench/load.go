package main

import (
	"context"
	"net/http"
	"time"
)

// loadResult is what one closed-loop phase observed.
type loadResult struct {
	latencies []float64 // ms, one per answered request
	answered  int       // correct answers
	attempted int
	failed    int
	failures  []string // the first maxFailureNotes failure messages
	wall      time.Duration
}

// maxFailureNotes bounds how many failure messages a result keeps.
const maxFailureNotes = 5

// targets bundles what the load loop sends and checks.
type targets struct {
	base   string
	s      *stream
	bodies [][]byte
	o      *oracle
	next   int64 // next stream position, kept from warm-up to window
}

// record counts one request's outcome: err is its transport, status or
// oracle failure, nil for a correct answer.
func (r *loadResult) record(query string, err error) {
	r.attempted++
	if err == nil {
		r.answered++
		return
	}
	r.failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, query+": "+err.Error())
	}
}

// merge adds another result's samples and counts to r.
func (r *loadResult) merge(o *loadResult) {
	r.latencies = append(r.latencies, o.latencies...)
	r.answered += o.answered
	r.attempted += o.attempted
	r.failed += o.failed
	for _, f := range o.failures {
		if len(r.failures) < maxFailureNotes {
			r.failures = append(r.failures, f)
		}
	}
}

// send posts stream request id, times the exchange up to the last byte
// of the response, and checks the answer against the oracle.
func (t *targets) send(cl *http.Client, id int) (time.Duration, error) {
	start := time.Now()
	raw, err := post(context.Background(), cl, t.base, t.bodies[id])
	took := time.Since(start)
	if err != nil {
		return took, err
	}
	return took, verify(raw, t.o.want[id])
}

// closedLoop is the benchmark's one caller: on a single keep-alive
// connection it sends the next request of the stream only after the
// previous answer arrived, checking every answer against the oracle,
// until d elapses. The request in flight at the deadline completes and
// is counted; wall spans until it does. One caller, not one per core,
// because on the 2-core host the benchmark was sized on, two callers
// saturate both cores and the figures then follow the scheduler more
// than the program.
func closedLoop(t *targets, d time.Duration) *loadResult {
	cl := newClient()
	defer cl.CloseIdleConnections()
	res := &loadResult{}
	start := time.Now()
	for deadline := start.Add(d); time.Now().Before(deadline); {
		id := t.s.at(t.next)
		t.next++
		took, err := t.send(cl, id)
		if err == nil {
			res.latencies = append(res.latencies, ms(took))
		}
		res.record(t.s.reqs[id].Query, err)
	}
	res.wall = time.Since(start)
	return res
}

// sendEach sends every distinct request once, in order, on one
// connection, checking each answer; it warms the daemon's plan and
// engine caches for the whole request set.
func sendEach(t *targets) *loadResult {
	cl := newClient()
	defer cl.CloseIdleConnections()
	res := &loadResult{}
	for id := range t.s.reqs {
		_, err := t.send(cl, id)
		res.record(t.s.reqs[id].Query, err)
	}
	return res
}
