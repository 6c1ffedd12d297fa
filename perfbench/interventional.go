package main

// interventional: the paper's interventional query for a session still in
// progress (§4.4, Figure 12). Sessions are driven by the Random ABR over
// fcc/lte/wifi traces; each query abducts the log prefix up to chunk n and
// predicts the next chunk's download time for every quality on the
// ladder. nproc callers each wait for their reply, the way a live ABR
// does (closed loop).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"veritas"
	"veritas/internal/hmm"
	"veritas/internal/trace"
)

// batchChecks is how many queries are re-run through the batch Campaign
// path and compared bit for bit.
const batchChecks = 6

// queryWindows is how many windows the timed phase is split into for the
// gated medians.
const queryWindows = 25

type iquery struct {
	sess int
	n    int // prefix length: the query predicts record n
	seed int64
}

type ibench struct {
	cfg     config
	video   *veritas.Video
	logs    []*veritas.SessionLog
	queries []iquery
	next    atomic.Int64   // the next query to answer, across windows
	scratch []*hmm.Scratch // one reusable arena per caller
}

// iresult is one answered query.
type iresult struct {
	latency time.Duration
	abduct  time.Duration
	predict time.Duration
	n       int
	errMS   float64
	ok      bool
}

func runInterventional(cfg config) (*result, error) {
	res := &result{layers: map[string]float64{}}
	cal := newCalibrator(cfg.workers)
	var b *ibench
	var setup, rawSetup, videoS, traceS []float64
	for r := 0; r < cfg.setupReps; r++ {
		slow := cal.slowdown()
		t0 := time.Now()
		nb, vs, ts, err := newIBench(cfg)
		if err != nil {
			return nil, err
		}
		rawSetup = append(rawSetup, time.Since(t0).Seconds())
		setup = append(setup, time.Since(t0).Seconds()/slow)
		videoS = append(videoS, vs)
		traceS = append(traceS, ts)
		b = nb
	}

	untraced := cfg.seconds
	if cfg.trace {
		untraced = cfg.seconds / 2
	}
	// The gated numbers are medians over windows of the run, each window
	// scaled by the machine slowdown measured on either side of it. Scaling
	// by one measurement before and one after the whole run tracked the
	// machine too coarsely (it widened the spread across seeds from 0.09 to
	// 0.15); per window, it narrowed the throughput spread from 0.13 to
	// 0.05 on five seeds.
	slowPrev := cal.slowdown()
	var plain []iresult
	var plainWall time.Duration
	var windows, rawWindows []windowStats
	var slows dist
	for w := 0; w < queryWindows; w++ {
		rs, wall, err := b.timed(untraced/queryWindows, nil, res)
		if err != nil {
			return nil, err
		}
		slowNext := cal.slowdown()
		slow := (slowPrev + slowNext) / 2
		slowPrev = slowNext
		slows.add(slow)
		win := windowStats{rate: float64(len(rs)) / wall.Seconds() * slow}
		raw := windowStats{rate: float64(len(rs)) / wall.Seconds()}
		for _, r := range rs {
			win.lat.add(float64(r.latency) / float64(time.Millisecond) / slow)
			raw.lat.addDur(r.latency, time.Millisecond)
		}
		windows = append(windows, win)
		rawWindows = append(rawWindows, raw)
		plain = append(plain, rs...)
		plainWall += wall
	}
	qpsW, p50W, p90W := windowMedians(windows)
	rawQPS, rawP50, rawP90 := windowMedians(rawWindows)
	var qms, errMS dist
	for _, r := range plain {
		qms.addDur(r.latency, time.Millisecond)
		errMS.add(r.errMS)
	}
	if err := b.checkBatch(res); err != nil {
		return nil, err
	}

	if cfg.trace {
		rec := newRecorder()
		traced, _, err := b.timed(cfg.seconds/2, rec, res)
		if err != nil {
			return nil, err
		}
		if err := rec.write(filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-spans.json", cfg.workload, cfg.seed))); err != nil {
			return nil, err
		}
		b.layers(res, rec, traced, plain, medianOf(videoS), medianOf(traceS))
	}

	qps := float64(len(plain)) / plainWall.Seconds()
	res.e2e = append(res.e2e,
		metric{name: "setup_s", value: medianOf(setup), unit: "s", n: len(setup), note: "scaled"},
		metric{name: "throughput_per_s", value: qpsW, unit: "1/s", n: len(plain), note: fmt.Sprintf("queries/s, scaled, median of %d windows", queryWindows)},
		metric{name: "latency_p50_ms", value: p50W, unit: "ms", n: qms.n(),
			note: fmt.Sprintf("one query (abduct prefix + predict every quality); scaled, median of %d window p50s", queryWindows)},
		metric{name: "latency_p90_ms", value: p90W, unit: "ms", n: qms.n(), note: "scaled, median of window p90s"},
	)
	res.detail = append(res.detail,
		metric{name: "machine_slowdown", value: slows.median(), unit: "ratio", n: slows.n(), note: "reference kernel time / nominal, median over windows"},
		metric{name: "raw_setup_s", value: medianOf(rawSetup), unit: "s", n: len(rawSetup)},
		metric{name: "raw_throughput_per_s", value: rawQPS, unit: "1/s", n: len(plain), note: "median of window rates"},
		metric{name: "raw_latency_p50_ms", value: rawP50, unit: "ms", n: qms.n(), note: "median of window p50s"},
		metric{name: "raw_latency_p90_ms", value: rawP90, unit: "ms", n: qms.n(), note: "median of window p90s"},
		metric{name: "query_p50_ms", value: qms.median(), unit: "ms", n: qms.n(), note: "whole run"},
		pctMetric("query_p99_ms", &qms, 99, "ms"),
		tailMetric("query_tail_ms", &qms, "ms"),
		metric{name: "queries_per_s", value: qps, unit: "1/s", n: len(plain), note: "whole run"},
		metric{name: "pred_err_ms", value: errMS.median(), unit: "ms", n: errMS.n(), note: "median |predicted - actual| for the quality actually fetched next"},
		metric{name: "pred_err_mean_ms", value: errMS.mean(), unit: "ms", n: errMS.n()},
	)
	return res, nil
}

// newIBench generates the sessions and the query list from the seed, and
// returns how long the clip synthesis and trace generation took.
func newIBench(cfg config) (*ibench, float64, float64, error) {
	b := &ibench{cfg: cfg}
	for w := 0; w < cfg.workers; w++ {
		// One arena per caller, as a live service would keep: each
		// abduction is used before the caller's next query reuses it.
		b.scratch = append(b.scratch, hmm.NewScratch())
	}
	t0 := time.Now()
	b.video = veritas.DefaultVideo(cfg.seed)
	videoS := time.Since(t0).Seconds()
	var traceS float64
	for ri, regime := range trace.Regimes() {
		for i := 0; i < cfg.iSessions; i++ {
			seed := cfg.seed*1_000_000 + int64(ri)*10_000 + int64(i)
			gcfg, err := trace.RegimeConfig(regime, seed)
			if err != nil {
				return nil, 0, 0, err
			}
			t0 := time.Now()
			gt, err := veritas.GenerateTrace(gcfg)
			if err != nil {
				return nil, 0, 0, err
			}
			traceS += time.Since(t0).Seconds()
			sess, err := veritas.RunSession(veritas.SessionConfig{Trace: gt, ABR: veritas.NewRandomABR(seed + 7), Video: b.video})
			if err != nil {
				return nil, 0, 0, err
			}
			b.logs = append(b.logs, sess.Log)
		}
	}
	// Longer than any run consumes, so a run answers a random sample of
	// the list rather than cycling through it.
	rng := rand.New(rand.NewSource(cfg.seed))
	for k := 0; k < 1<<15; k++ {
		s := rng.Intn(len(b.logs))
		recs := len(b.logs[s].Records)
		b.queries = append(b.queries, iquery{sess: s, n: 2 + rng.Intn(recs-2), seed: 1 + rng.Int63n(1<<31)})
	}
	return b, videoS, traceS, nil
}

// answer runs one query through the public entry points, abducting into
// the caller's reusable arena sc (nil allocates a fresh one). With calls
// set, the abduction's throughput estimator counts its evaluations there.
func (b *ibench) answer(q iquery, sc *hmm.Scratch, calls *int64) (preds []float64, t [3]time.Time, err error) {
	log := b.logs[q.sess]
	prefix := log.Prefix(q.n)
	next := log.Records[q.n]
	gap := next.Start - prefix.Records[q.n-1].End
	acfg := veritas.AbductionConfig{NumSamples: b.cfg.samples, Seed: q.seed, Scratch: sc}
	if calls != nil {
		acfg.HMM.Estimator = countingEstimator(calls)
	}
	t[0] = time.Now()
	abd, err := veritas.Abduct(prefix, acfg)
	if err != nil {
		return nil, t, err
	}
	t[1] = time.Now()
	preds = make([]float64, b.video.NumQualities())
	for qi := range preds {
		preds[qi] = veritas.PredictNextChunkTime(abd, gap, b.video.Size(next.Index, qi))
	}
	t[2] = time.Now()
	return preds, t, nil
}

// timed runs the closed loop for seconds with cfg.workers callers and
// returns every answered query and the wall time. With rec set it records
// a span per query with abduct and predict children.
func (b *ibench) timed(seconds float64, rec *recorder, res *result) ([]iresult, time.Duration, error) {
	var (
		mu       sync.Mutex
		all      []iresult
		firstErr error
		wg       sync.WaitGroup
		calls    = make([]int64, b.cfg.workers)
	)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for w := 0; w < b.cfg.workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []iresult
			sc := b.scratch[w]
			var cnt *int64
			if rec != nil {
				cnt = &calls[w]
			}
			for len(mine) == 0 || time.Now().Before(deadline) {
				k := int(b.next.Add(1) - 1)
				q := b.queries[k%len(b.queries)]
				preds, t, err := b.answer(q, sc, cnt)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("query %d (session %d, n=%d): %w", k, q.sess, q.n, err)
					}
					mu.Unlock()
					return
				}
				actual := b.logs[q.sess].Records[q.n]
				r := iresult{latency: t[2].Sub(t[0]), abduct: t[1].Sub(t[0]), predict: t[2].Sub(t[1]), n: q.n, ok: true}
				for _, p := range preds {
					if math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
						r.ok = false
					}
				}
				r.errMS = 1000 * math.Abs(preds[actual.Quality]-actual.DownloadSeconds())
				if rec != nil {
					id := rec.id()
					key := fmt.Sprintf("s%d/n%d", q.sess, q.n)
					rec.record(0, id, "abduct", key, t[0], t[1])
					rec.record(0, id, "predict", key, t[1], t[2])
					rec.record(id, 0, "query", key, t[0], t[2])
				}
				mine = append(mine, r)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return nil, 0, firstErr
	}
	for _, r := range all {
		res.attempted++
		if !r.ok {
			res.fail("query at n=%d gave a non-finite or non-positive prediction", r.n)
		}
	}
	var total int64
	for _, c := range calls {
		total += c
	}
	if rec != nil && len(all) > 0 {
		res.layers["tcp.estimate_calls"] = float64(total) / float64(len(all))
	}
	return all, wall, nil
}

// checkBatch re-runs a seeded sample of queries through the batch
// Campaign path (Log + Predict specs with the same seeds) and requires
// bit-identical predictions.
func (b *ibench) checkBatch(res *result) error {
	rng := rand.New(rand.NewSource(b.cfg.seed + 1))
	var specs []veritas.FleetSpec
	var direct [][]float64
	for i := 0; i < batchChecks; i++ {
		q := b.queries[rng.Intn(len(b.queries))]
		preds, _, err := b.answer(q, nil, nil)
		if err != nil {
			return err
		}
		direct = append(direct, preds)
		log := b.logs[q.sess]
		last := log.Records[q.n-1]
		next := log.Records[q.n]
		gap := next.Start - last.End
		st := last.TCP
		st.LastSendGap = gap
		spec := veritas.FleetSpec{
			ID:     fmt.Sprintf("query-%d", i),
			Log:    log.Prefix(q.n),
			Abduct: veritas.AbductionConfig{NumSamples: b.cfg.samples, Seed: q.seed},
		}
		for qi := range preds {
			spec.Predict = append(spec.Predict, veritas.FleetPredictQuery{
				StartSecs: last.End + gap, TCP: st, SizeBytes: b.video.Size(next.Index, qi),
			})
		}
		specs = append(specs, spec)
	}
	c, err := veritas.NewCampaign(veritas.WithCorpus(specs...), veritas.WithSamples(b.cfg.samples), veritas.WithWorkers(b.cfg.workers))
	if err != nil {
		return err
	}
	fr, err := c.Run(context.Background())
	if err != nil {
		return err
	}
	for i, s := range fr.Sessions {
		res.attempted++
		same := len(s.Predictions) == len(direct[i])
		for j := 0; same && j < len(direct[i]); j++ {
			same = math.Float64bits(s.Predictions[j]) == math.Float64bits(direct[i][j])
		}
		if !same {
			res.fail("batch Campaign predictions for %s differ from the direct Abduct+PredictNextChunkTime path: %v vs %v",
				specs[i].ID, s.Predictions, direct[i])
		}
	}
	return nil
}

func (b *ibench) layers(res *result, rec *recorder, traced, plain []iresult, videoS, traceS float64) {
	L := res.layers
	var abd, pred, lat, plainLat dist
	var chunks, abdSum, predSum, latSum float64
	for _, r := range traced {
		abd.addDur(r.abduct, time.Millisecond)
		pred.addDur(r.predict, time.Microsecond)
		lat.addDur(r.latency, time.Millisecond)
		chunks += float64(r.n)
		abdSum += r.abduct.Seconds()
		predSum += r.predict.Seconds()
		latSum += r.latency.Seconds()
	}
	for _, r := range plain {
		plainLat.addDur(r.latency, time.Millisecond)
	}
	var errMS dist
	for _, r := range plain {
		errMS.add(r.errMS)
	}
	self := selfByName(rec.snapshot())
	L["abduction.abduct_ms_p50"] = abd.median()
	L["abduction.abduct_ms_p99"] = abd.pct(99)
	L["abduction.chunks_per_query"] = ratio(chunks, float64(len(traced)))
	L["abduction.predict_us_p50"] = pred.median()
	L["abduction.pred_err_ms"] = errMS.median()
	L["video.synthesize_s"] = videoS
	L["trace.generate_s"] = traceS
	L["trace.overhead_ratio"] = ratio(lat.mean(), plainLat.mean())
	// Interventional queries are all abduction: its share covers the
	// posterior and the predictions; other is the caller's own time.
	L["ledger.abduction_share"] = ratio(abdSum+predSum, latSum)
	L["ledger.other_share"] = ratio(self["query"].Seconds(), latSum)
}
