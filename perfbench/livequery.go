package main

// live-query: serving a store that is still being written. The store is
// pre-built from campaign-shaped rows (4 arms x 5 samples, truth attached)
// and sized well above the serve row cache. Each run first reopens it cold
// and serves the first /v1/report, then measures an open-loop read mix on a
// watch-mode handler while a writer appends at a fixed open-loop rate.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"veritas"
	"veritas/internal/engine"
	"veritas/internal/serve"
	"veritas/internal/store"
	"veritas/internal/telemetry"
)

var (
	liveArms      = []string{"bba-5s", "bba-30s", "bola-5s", "bola-30s"}
	liveMetrics   = []string{"ssim", "rebuf", "bitrate"}
	liveEstimates = []string{"veritas-mid", "veritas-low", "veritas-high", "baseline", "truth"}
)

// liveMix weights the read mix: mostly aggregate reads (half of them
// If-None-Match polls), a trickle of listings, and per-session lookups
// that exercise the row cache.
var liveMix = []struct {
	ep     string
	weight int
}{
	{"report", 4}, {"percentiles", 2}, {"cdf", 1}, {"series", 1},
	{"sessions", 1}, {"session", 2}, {"scenarios", 1},
}

type liveReq struct {
	ep   string
	path string
	poll bool // send If-None-Match with the last report ETag
}

type live struct {
	cfg       config
	dir       string
	templates []engine.SessionRow
	ids       []string
	appended  int // rows the writer added in earlier phases
	lb        *loopback
}

func runLiveQuery(cfg config) (*result, error) {
	work := filepath.Join(cfg.outDir, fmt.Sprintf("live-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	res := &result{layers: map[string]float64{}}
	lq := &live{cfg: cfg}

	// Set-up: campaign-shaped template rows, then the pre-built store.
	cal := newCalibrator(cfg.workers)
	var setup, rawSetup []float64
	for r := 0; r < cfg.setupReps; r++ {
		slow := cal.slowdown()
		t0 := time.Now()
		dir := filepath.Join(work, fmt.Sprintf("store-%d", r))
		if err := lq.build(dir); err != nil {
			return nil, err
		}
		rawSetup = append(rawSetup, time.Since(t0).Seconds())
		setup = append(setup, time.Since(t0).Seconds()/slow)
		if lq.dir != "" {
			if err := os.RemoveAll(lq.dir); err != nil {
				return nil, err
			}
		}
		lq.dir = dir
	}
	lb, err := startLoopback(cfg.workers)
	if err != nil {
		return nil, err
	}
	defer lb.close()
	lq.lb = lb

	var rec *recorder
	var st *serveTimer
	if cfg.trace {
		rec = newRecorder()
		st = newServeTimer(rec)
	}
	cold, err := lq.coldReports(res, rec)
	if err != nil {
		return nil, err
	}
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	// Read latencies are not scaled by the machine slowdown. Reads keep a
	// core only about a third busy, so they slow less than the kernel does,
	// and on five seeds scaling did not narrow the spread.
	slowBefore := cal.slowdown()
	ph, err := lq.phase(seconds, res, nil, nil)
	if err != nil {
		return nil, err
	}
	slow := (slowBefore + cal.slowdown()) / 2

	var req, appendMS dist
	for _, s := range ph.reads {
		req.addDur(s.latency(), time.Millisecond)
	}
	for _, s := range ph.appends {
		appendMS.addDur(s.latency(), time.Millisecond)
	}
	_, p50W, p90W := windowMedians(ph.windows(liveWindows))
	res.e2e = append(res.e2e,
		metric{name: "setup_s", value: medianOf(setup), unit: "s", n: len(setup), note: fmt.Sprintf("templates + %d-row store build, scaled", cfg.storeRows)},
		metric{name: "throughput_per_s", value: ph.goodput(), unit: "1/s", n: len(ph.reads),
			note: fmt.Sprintf("reads answered OK within %v of due, per second, at %g/s offered", goodputLimit, cfg.readRate)},
		metric{name: "latency_p50_ms", value: p50W, unit: "ms", n: req.n(),
			note: fmt.Sprintf("one read, timed from when it was due; median of %d window p50s", liveWindows)},
		metric{name: "latency_p90_ms", value: p90W, unit: "ms", n: req.n(), note: "median of window p90s"},
	)
	res.detail = append(res.detail,
		metric{name: "machine_slowdown", value: slow, unit: "ratio", n: 2, note: "reference kernel time / nominal, before and after the phase"},
		metric{name: "raw_setup_s", value: medianOf(rawSetup), unit: "s", n: len(rawSetup)},
		metric{name: "cold_report_s", value: cold.median(), unit: "s", n: cold.n(), note: fmt.Sprintf("clean-closed %d-row store -> first /v1/report body", cfg.storeRows)},
		metric{name: "req_p50_ms", value: req.median(), unit: "ms", n: req.n()},
		pctMetric("req_p99_ms", &req, 99, "ms"),
		tailMetric("req_tail_ms", &req, "ms"),
		pctMetric("append_p99_ms", &appendMS, 99, "ms"),
	)

	if cfg.trace {
		traced, err := lq.phase(seconds, res, rec, st)
		if err != nil {
			return nil, err
		}
		var tracedReq dist
		for _, s := range traced.reads {
			tracedReq.addDur(s.latency(), time.Millisecond)
		}
		res.layers["trace.overhead_ratio"] = ratio(tracedReq.median(), req.median())
		if err := rec.write(filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-spans.json", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
		lq.layers(res, rec, st, traced, &cold)
	}
	return res, nil
}

// build writes the pre-built store: template rows from a small real
// campaign (short sessions; a row's size depends on arms and samples, not
// on chunks), copied under distinct IDs up to storeRows, then a clean
// close.
func (lq *live) build(dir string) error {
	c, err := veritas.NewCampaign(
		veritas.WithSeed(lq.cfg.seed),
		veritas.WithSessions(2),
		veritas.WithChunks(40),
		veritas.WithMatrix(whatifABRs, whatifBuffers),
		veritas.WithSamples(lq.cfg.samples),
		veritas.WithWorkers(lq.cfg.workers),
	)
	if err != nil {
		return err
	}
	stream := c.Results(context.Background())
	var templates []engine.SessionRow
	for stream.Next() {
		templates = append(templates, stream.Row())
	}
	if err := stream.Err(); err != nil {
		return err
	}
	lq.templates = templates
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	lq.ids = lq.ids[:0]
	for i := 0; i < lq.cfg.storeRows; i++ {
		row := lq.row(i, "")
		lq.ids = append(lq.ids, row.ID)
		if err := st.Append(row); err != nil {
			st.Close()
			return err
		}
	}
	return st.Close()
}

// row returns the i-th campaign-shaped row under the given ID prefix.
func (lq *live) row(i int, prefix string) engine.SessionRow {
	row := lq.templates[i%len(lq.templates)]
	row.Index = i
	row.ID = fmt.Sprintf("%s%s-%05d", prefix, row.Scenario, i)
	return row
}

// coldReports reopens the clean-closed store and serves the first
// /v1/report, coldReps times, checking each body.
func (lq *live) coldReports(res *result, rec *recorder) (dist, error) {
	var cold dist
	for r := 0; r < lq.cfg.coldReps; r++ {
		root := rec.id()
		t0 := time.Now()
		st, err := store.Open(lq.dir, store.Options{ReadOnly: true})
		if err != nil {
			return cold, err
		}
		tOpen := time.Now()
		tPart := tOpen
		if rec != nil {
			if _, err := st.Partials(); err != nil {
				st.Close()
				return cold, err
			}
			tPart = time.Now()
		}
		lq.lb.set(serve.New(st))
		tReq := time.Now()
		status, _, body, err := lq.lb.get("/v1/report", 0, "")
		t1 := time.Now()
		cold.addDur(t1.Sub(t0), time.Second)
		rec.record(0, root, "store.open", "", t0, tOpen)
		rec.record(0, root, "store.partials", "", tOpen, tPart)
		rec.record(0, root, "cold.request", "/v1/report", tReq, t1)
		rec.record(root, 0, "cold_report", "", t0, t1)
		res.attempted++
		if err != nil || status != 200 || !json.Valid(body) {
			res.fail("cold /v1/report: status %d, err %v", status, err)
		}
		if err := st.Close(); err != nil {
			return cold, err
		}
	}
	return cold, nil
}

// requests pre-generates the read mix from the seed. Every block of
// consecutive reads holds each endpoint exactly as often as its weight, in
// a seeded order, and reports take a fixed turn of variants: the shares of
// the mix, which set where its tail falls, do not vary with the seed.
// Scenarios, arms and session IDs are Zipf-hot.
func (lq *live) requests(n int) []liveReq {
	rng := rand.New(rand.NewSource(lq.cfg.seed * 7919))
	scen := veritas.Scenarios()
	zScen := rand.NewZipf(rng, 1.2, 1, uint64(len(scen)-1))
	zArm := rand.NewZipf(rng, 1.2, 1, uint64(len(liveArms)-1))
	zID := rand.NewZipf(rng, 1.1, 1, uint64(len(lq.ids)-1))
	var block []string
	for _, m := range liveMix {
		for j := 0; j < m.weight; j++ {
			block = append(block, m.ep)
		}
	}
	out := make([]liveReq, n)
	reports := 0
	for i := range out {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		ep := block[i%len(block)]
		q := url.Values{}
		if rng.Intn(2) == 0 {
			q.Set("scenario", scen[zScen.Uint64()])
		}
		r := liveReq{ep: ep}
		switch ep {
		case "report":
			// Reports take turns: unfiltered, unfiltered poll, one
			// scenario, one scenario poll. An unfiltered report costs
			// several times a filtered one, so its share of the mix
			// sets the p90.
			r.path = "/v1/report"
			r.poll = reports%2 == 1
			q = url.Values{}
			if reports/2%2 == 1 {
				q.Set("scenario", scen[zScen.Uint64()])
			}
			reports++
		case "cdf", "series", "percentiles":
			q.Set("arm", liveArms[zArm.Uint64()])
			q.Set("metric", liveMetrics[rng.Intn(len(liveMetrics))])
			q.Set("estimator", liveEstimates[rng.Intn(len(liveEstimates))])
			if ep == "percentiles" && rng.Intn(2) == 0 {
				q.Set("percentiles", "50,95,99")
			}
			r.path = "/v1/report/" + ep
		case "sessions":
			r.path = "/v1/sessions"
		case "session":
			r.path = "/v1/sessions/" + url.PathEscape(lq.ids[zID.Uint64()])
			q = url.Values{}
		case "scenarios":
			r.path = "/v1/scenarios"
			q = url.Values{}
		}
		if len(q) > 0 {
			r.path += "?" + q.Encode()
		}
		out[i] = r
	}
	return out
}

// goodputLimit is the latency from due within which a read counts towards
// the live-query throughput.
const goodputLimit = 250 * time.Millisecond

type livePhase struct {
	reads, appends []opSample
	readFails      int
	polls, notMod  int
	regR, regW     telemetry.Snapshot
	appendUS       dist
}

// goodput is the rate of reads answered correctly within goodputLimit of
// their due time, over the window from the first due time to the last
// completion.
func (ph *livePhase) goodput() float64 {
	if len(ph.reads) == 0 {
		return 0
	}
	first, last := ph.reads[0].due, ph.reads[0].done
	good := 0
	for _, s := range ph.reads {
		if s.due.Before(first) {
			first = s.due
		}
		if s.done.After(last) {
			last = s.done
		}
		if s.err == nil && s.latency() <= goodputLimit {
			good++
		}
	}
	return float64(good) / last.Sub(first).Seconds()
}

// liveWindows is how many windows, by due time, the read latencies are
// split into for the gated medians.
const liveWindows = 10

// windows splits the reads into n windows of equal length by due time.
func (ph *livePhase) windows(n int) []windowStats {
	out := make([]windowStats, n)
	if len(ph.reads) == 0 {
		return out
	}
	first, last := ph.reads[0].due, ph.reads[0].due
	for _, s := range ph.reads {
		if s.due.Before(first) {
			first = s.due
		}
		if s.due.After(last) {
			last = s.due
		}
	}
	span := last.Sub(first) + 1
	for _, s := range ph.reads {
		w := int(int64(s.due.Sub(first)) * int64(n) / int64(span))
		out[w].lat.addDur(s.latency(), time.Millisecond)
	}
	return out
}

// phase runs the timed open-loop phase: the writer appending new rows and
// the read mix against a watch-mode handler, then the output check.
func (lq *live) phase(seconds float64, res *result, rec *recorder, stt *serveTimer) (*livePhase, error) {
	cfg := lq.cfg
	regW, regR := telemetry.NewRegistry(), telemetry.NewRegistry()
	writer, err := store.Open(lq.dir, store.Options{Telemetry: regW})
	if err != nil {
		return nil, err
	}
	ws, err := store.OpenWatch(lq.dir, store.Options{Telemetry: regR})
	if err != nil {
		writer.Close()
		return nil, err
	}
	defer ws.Close()
	var h http.Handler = serve.New(ws, serve.WithTelemetry(regR))
	if stt != nil {
		h = stt.wrap(h)
	}
	lq.lb.set(h)
	// Warm-up, untimed: the watch handler builds its partials.
	if status, _, _, err := lq.lb.get("/v1/report", 0, ""); err != nil || status != 200 {
		writer.Close()
		return nil, fmt.Errorf("warm-up /v1/report: status %d, err %v", status, err)
	}

	ph := &livePhase{}
	dur := time.Duration(seconds * float64(time.Second))
	reqs := lq.requests(int(cfg.readRate*seconds) + 1)
	var (
		etag          atomic.Value // the last /v1/report ETag seen
		mu            sync.Mutex
		polls, notMod int
		readFails     int
		wg            sync.WaitGroup
	)
	etag.Store("")
	start := time.Now().Add(20 * time.Millisecond)
	until := start.Add(dur)
	var appendUS dist
	var appendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		ph.appends = openLoop(start, time.Duration(float64(time.Second)/cfg.writeRate), until, 1, func(k int) error {
			row := lq.row(cfg.storeRows+lq.appended+k, "live-")
			t0 := time.Now()
			err := writer.Append(row)
			t1 := time.Now()
			appendUS.addDur(t1.Sub(t0), time.Microsecond)
			rec.record(0, 0, "store.append", row.ID, t0, t1)
			if err != nil && appendErr == nil {
				appendErr = err
			}
			return err
		})
	}()
	ph.reads = openLoop(start, time.Duration(float64(time.Second)/cfg.readRate), until, cfg.workers, func(k int) error {
		r := reqs[k%len(reqs)]
		tag := ""
		if r.poll {
			tag = etag.Load().(string)
		}
		id := rec.id()
		t0 := time.Now()
		status, newTag, body, err := lq.lb.get(r.path, id, tag)
		rec.record(id, 0, "http.request", r.path, t0, time.Now())
		ok := err == nil && (status == 200 && json.Valid(body) || status == 304 && tag != "")
		mu.Lock()
		if tag != "" {
			polls++
			if status == 304 {
				notMod++
			}
		}
		if !ok {
			readFails++
		}
		mu.Unlock()
		if r.ep == "report" && newTag != "" {
			etag.Store(newTag)
		}
		if !ok {
			return fmt.Errorf("GET %s: status %d, err %v", r.path, status, err)
		}
		return nil
	})
	wg.Wait()
	if err := writer.Close(); err != nil {
		return nil, err
	}
	if appendErr != nil {
		return nil, fmt.Errorf("append: %w", appendErr)
	}
	ph.polls, ph.notMod, ph.readFails = polls, notMod, readFails
	lq.appended += len(ph.appends)
	ph.appendUS = appendUS
	res.attempted += len(ph.reads) + len(ph.appends)
	for _, s := range ph.reads {
		if s.err != nil {
			res.fail("%v", s.err)
		}
	}
	ph.regW, ph.regR = regW.Snapshot(), regR.Snapshot()

	// Output check: after the writer stops, the watch-served report equals
	// a cold recompute (full scan) over the same store.
	res.attempted++
	status, _, body, err := lq.lb.get("/v1/report", 0, "")
	if err != nil || status != 200 {
		res.fail("final watch /v1/report: status %d, err %v", status, err)
		return ph, nil
	}
	cs, err := store.Open(lq.dir, store.Options{ReadOnly: true})
	if err != nil {
		return nil, err
	}
	defer cs.Close()
	agg, err := cs.Aggregate()
	if err != nil {
		return nil, err
	}
	want, err := json.Marshal(agg.Report())
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(body, want) {
		res.fail("watch-served /v1/report after the writer stopped differs from a cold recompute (%d vs %d bytes)", len(body), len(want))
	}
	if n := ws.Len(); n != cfg.storeRows+lq.appended {
		res.fail("watch store holds %d sessions, want %d", n, cfg.storeRows+lq.appended)
	}
	return ph, cs.Close()
}

func (lq *live) layers(res *result, rec *recorder, stt *serveTimer, ph *livePhase, cold *dist) {
	L := res.layers
	var late, appendMS dist
	for _, s := range ph.reads {
		late.addDur(s.late(), time.Millisecond)
	}
	for _, s := range ph.appends {
		appendMS.addDur(s.latency(), time.Millisecond)
	}
	L["store.append_us_p50"] = ph.appendUS.median()
	L["store.append_us_p99"] = ph.appendUS.pct(99)
	L["store.appends"] = float64(len(ph.appends))
	L["store.cold_report_s"] = cold.median()
	L["store.watch_refreshes"] = float64(ph.regR.Counters["veritas_store_watch_refreshes_total"])
	L["store.watch_rows"] = float64(ph.regR.Counters["veritas_store_watch_rows_total"])
	L["store.rotations"] = float64(ph.regW.Counters["veritas_store_segment_rotations_total"])
	hits := float64(ph.regR.Counters["veritas_serve_row_cache_hits_total"])
	misses := float64(ph.regR.Counters["veritas_serve_row_cache_misses_total"])
	L["serve.row_cache_hit_ratio"] = ratio(hits, hits+misses)
	L["serve.not_modified_ratio"] = ratio(float64(ph.notMod), float64(ph.polls))
	for _, ep := range serveEndpoints {
		if d := stt.endpoint(ep); d != nil {
			L["serve."+ep+"_us_p50"] = d.median()
			L["serve."+ep+"_us_p99"] = d.pct(99)
		}
	}
	spans := rec.snapshot()
	self := selfTimes(spans)
	var overhead, open, partials dist
	var clientS, serverS, appendS float64
	for _, s := range spans {
		switch s.Name {
		case "http.request":
			overhead.addDur(self[s.ID], time.Microsecond)
			clientS += s.dur().Seconds()
		case "store.append":
			appendS += s.dur().Seconds()
		case "store.open":
			open.add(s.dur().Seconds())
		case "store.partials":
			partials.add(s.dur().Seconds())
		}
		// Only reads the load generator sent; the warm-up and the final
		// check have no client span.
		if strings.HasPrefix(s.Name, "serve.") && s.Parent != 0 {
			serverS += s.dur().Seconds()
		}
	}
	L["store.open_s"] = open.median()
	L["store.partials_s"] = partials.median()
	L["http.overhead_us_p50"] = overhead.median()
	L["load.late_ms_p99"] = late.pct(99)
	L["load.append_p99_ms"] = appendMS.pct(99)
	L["load.sent"] = float64(len(ph.reads))
	L["load.failed"] = float64(ph.readFails)
	// The ledger: store appends, server-side handling, and the rest of the
	// client's time (connection, transfer, decoding).
	total := clientS + appendS
	L["ledger.store_share"] = ratio(appendS, total)
	L["ledger.serve_share"] = ratio(serverS, total)
	L["ledger.http_share"] = ratio(clientS-serverS, total)
}
