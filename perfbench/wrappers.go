package main

// Instrumentation the traced run splices around the program's public
// entry points: an ABR decorator, a timing store sink, HTTP handler
// middleware and a counting throughput estimator. None of it changes what
// the program computes; it only observes.

import (
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"veritas/internal/abr"
	"veritas/internal/engine"
	"veritas/internal/tcp"
)

// abrTimer builds ABR factories whose instances time every Choose call.
// With delay set, each call also spins for that long after choosing: the
// separation test uses it to slow the ABR layer alone.
type abrTimer struct {
	timing bool
	delay  time.Duration
	seq    atomic.Uint64
	shards [8]struct {
		mu sync.Mutex
		h  hist
	}
}

// wrap returns a factory for decorated instances of newABR.
func (t *abrTimer) wrap(newABR func() abr.Algorithm) func() abr.Algorithm {
	return func() abr.Algorithm {
		n := t.seq.Add(1)
		return &timedABR{inner: newABR(), t: t, shard: int(n % uint64(len(t.shards)))}
	}
}

// stats merges every instance's timings.
func (t *abrTimer) stats() hist {
	var out hist
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		out.merge(&s.h)
		s.mu.Unlock()
	}
	return out
}

type timedABR struct {
	inner abr.Algorithm
	t     *abrTimer
	shard int
}

func (a *timedABR) Name() string { return a.inner.Name() }

func (a *timedABR) Choose(ctx abr.Context) int {
	t0 := time.Now()
	q := a.inner.Choose(ctx)
	if a.t.delay > 0 {
		for time.Since(t0) < a.t.delay {
		}
	}
	if a.t.timing {
		d := time.Since(t0)
		s := &a.t.shards[a.shard]
		s.mu.Lock()
		s.h.observe(d)
		s.mu.Unlock()
	}
	return q
}

// timedSink times each store append the campaign makes through it and
// records it as a span under the run.
type timedSink struct {
	inner  engine.Sink
	rec    *recorder
	parent int64
	mu     sync.Mutex
	d      dist // microseconds
}

func (s *timedSink) Put(r engine.SessionResult) error {
	t0 := time.Now()
	err := s.inner.Put(r)
	t1 := time.Now()
	s.rec.record(0, s.parent, "store.append", r.ID, t0, t1)
	s.mu.Lock()
	s.d.addDur(t1.Sub(t0), time.Microsecond)
	s.mu.Unlock()
	return err
}

// spanHeader carries the client's span ID, so the server-side span the
// middleware records becomes its child.
const spanHeader = "X-Perfbench-Span"

// serveEndpoints are the query endpoints the serve ledger reports.
var serveEndpoints = []string{"report", "cdf", "series", "percentiles", "sessions", "session", "scenarios"}

// endpointOf maps a request path to its serve ledger endpoint.
func endpointOf(path string) string {
	switch {
	case path == "/v1/report":
		return "report"
	case strings.HasPrefix(path, "/v1/report/"):
		return strings.TrimPrefix(path, "/v1/report/")
	case path == "/v1/sessions":
		return "sessions"
	case strings.HasPrefix(path, "/v1/sessions/"):
		return "session"
	case path == "/v1/scenarios":
		return "scenarios"
	}
	return "other"
}

// serveTimer is handler middleware measuring server-side time per
// endpoint, recorded as a child of the client's span.
type serveTimer struct {
	rec  *recorder
	mu   sync.Mutex
	byEP map[string]*dist // microseconds
}

func newServeTimer(rec *recorder) *serveTimer {
	return &serveTimer{rec: rec, byEP: map[string]*dist{}}
}

func (t *serveTimer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		ep := endpointOf(r.URL.Path)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		t.rec.record(0, parent, "serve."+ep, r.URL.RequestURI(), t0, t1)
		t.mu.Lock()
		d := t.byEP[ep]
		if d == nil {
			d = &dist{}
			t.byEP[ep] = d
		}
		d.addDur(t1.Sub(t0), time.Microsecond)
		t.mu.Unlock()
	})
}

// endpoint returns the server-side times recorded for ep, or nil.
func (t *serveTimer) endpoint(ep string) *dist {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byEP[ep]
}

// countingEstimator is the paper's throughput estimator f with a call
// counter. The counter is not synchronized: give each goroutine its own.
func countingEstimator(calls *int64) func(gtbwMbps float64, st tcp.State, sizeBytes float64) float64 {
	return func(gtbwMbps float64, st tcp.State, sizeBytes float64) float64 {
		*calls++
		return tcp.EstimateThroughput(gtbwMbps, st, sizeBytes)
	}
}
