package main

// whatif-campaign: the paper's counterfactual query at fleet scale. Each
// iteration goes from a corpus spec to the first /v1/report served from
// the cold-reopened store: cmd/fleet's defaults at paper length (all four
// scenarios, 8 sessions each, 300 chunks, MPC deployed at a 5 s buffer,
// arms {bba, bola} x {5 s, 30 s}, K=5), nproc engine workers.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"veritas"
	"veritas/internal/abr"
	"veritas/internal/store"
	"veritas/internal/telemetry"
	"veritas/internal/trace"
)

// campaignsPerWindow groups consecutive campaigns for the latency
// medians: 4 x 32 sessions leaves 12 beyond each window's p90.
const campaignsPerWindow = 4

var (
	whatifABRs    = []string{"bba", "bola"}
	whatifBuffers = []float64{5, 30}
)

// whatifIter is what one timed campaign measured.
type whatifIter struct {
	elapsed  time.Duration   // corpus spec -> first served report body
	answers  []time.Duration // corpus spec -> each session's answer stored
	sessions int
	bytes    int64
	pairs    int // (session, arm) pairs with a truth
	covered  float64
	slow     float64 // machine slowdown measured just before

	// traced only
	run      time.Duration
	workers  int
	snap     telemetry.Snapshot
	open     time.Duration
	partials time.Duration
}

type whatif struct {
	cfg   config
	work  string
	lb    *loopback
	rec   *recorder
	timer *abrTimer // deployed (Setting A) ABR decisions
	armT  *abrTimer // what-if arm ABR decisions
	sink  dist      // store append microseconds, traced
	serve *serveTimer
}

func runWhatif(cfg config) (*result, error) {
	w := &whatif{cfg: cfg, work: filepath.Join(cfg.outDir, fmt.Sprintf("whatif-%d", os.Getpid()))}
	if err := os.MkdirAll(w.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(w.work)
	lb, err := startLoopback(1)
	if err != nil {
		return nil, err
	}
	defer lb.close()
	w.lb = lb
	res := &result{layers: map[string]float64{}}

	cal := newCalibrator(cfg.workers)
	setup, rawSetup, video, traces, err := w.setup(cal)
	if err != nil {
		return nil, err
	}

	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	untracedUntil := deadline
	if cfg.trace {
		untracedUntil = time.Now().Add(time.Duration(cfg.seconds / 2 * float64(time.Second)))
	}
	var plain, traced []whatifIter
	i := 0
	for len(plain) == 0 || time.Now().Before(untracedUntil) {
		slow := cal.slowdown()
		it, err := w.iteration(i, false, res)
		if err != nil {
			return nil, err
		}
		it.slow = slow
		plain = append(plain, it)
		i++
	}
	if cfg.trace {
		w.rec = newRecorder()
		w.timer = &abrTimer{timing: true, delay: cfg.chooseDelay}
		w.armT = &abrTimer{timing: true, delay: cfg.chooseDelay}
		w.serve = newServeTimer(w.rec)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
		for len(traced) == 0 || time.Now().Before(deadline) {
			it, err := w.iteration(i, true, res)
			if err != nil {
				pprof.StopCPUProfile()
				return nil, err
			}
			traced = append(traced, it)
			i++
		}
		pprof.StopCPUProfile()
		if err := os.WriteFile(w.outPath("cpu.pprof"), prof.Bytes(), 0o644); err != nil {
			return nil, err
		}
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		shares, _ := profileShares(samples, "phase", "run")
		if err := w.rec.write(w.outPath("spans.json")); err != nil {
			return nil, err
		}
		w.layers(res, traced, plain, shares, video, traces)
	}

	// End-to-end numbers come from the untraced iterations only, each
	// scaled by the machine slowdown measured just before it.
	var perSess, rawPerSess, campaignMS, answerMS, bytesPer, slows dist
	var pairs int
	var covered float64
	// Session answer latencies are summarized per window of
	// campaignsPerWindow consecutive campaigns (enough sessions for a p90
	// with ten beyond it); the gated value is the median over windows.
	windows := make([]windowStats, (len(plain)+campaignsPerWindow-1)/campaignsPerWindow)
	for i, it := range plain {
		for _, a := range it.answers {
			windows[i/campaignsPerWindow].lat.add(float64(a) / float64(time.Millisecond) / it.slow)
		}
	}
	if n := len(windows); n > 1 && len(plain)%campaignsPerWindow != 0 {
		windows = windows[:n-1] // a partial window has too few sessions
	}
	_, p50W, p90W := windowMedians(windows)
	for _, it := range plain {
		perSess.add(float64(it.sessions) / it.elapsed.Seconds() * it.slow)
		rawPerSess.add(float64(it.sessions) / it.elapsed.Seconds())
		slows.add(it.slow)
		campaignMS.addDur(it.elapsed, time.Millisecond)
		for _, a := range it.answers {
			answerMS.addDur(a, time.Millisecond)
		}
		bytesPer.add(float64(it.bytes) / float64(it.sessions))
		pairs += it.pairs
		covered += it.covered
	}
	res.e2e = append(res.e2e,
		metric{name: "setup_s", value: medianOf(setup), unit: "s", n: len(setup), note: "scaled"},
		metric{name: "throughput_per_s", value: perSess.median(), unit: "1/s", n: perSess.n(), note: "sessions/s, spec -> first served /v1/report, scaled"},
		metric{name: "latency_p50_ms", value: p50W, unit: "ms", n: answerMS.n(),
			note: fmt.Sprintf("one session, spec -> its answer stored; scaled, median of %d window p50s", len(windows))},
		metric{name: "latency_p90_ms", value: p90W, unit: "ms", n: answerMS.n(), note: "scaled, median of window p90s"},
	)
	res.detail = append(res.detail,
		metric{name: "machine_slowdown", value: slows.median(), unit: "ratio", n: slows.n(), note: "reference kernel time / nominal, median over campaigns"},
		metric{name: "raw_setup_s", value: medianOf(rawSetup), unit: "s", n: len(rawSetup)},
		metric{name: "raw_latency_p50_ms", value: answerMS.median(), unit: "ms", n: answerMS.n(), note: "all sessions pooled"},
		pctMetric("raw_latency_p90_ms", &answerMS, 90, "ms"),
		metric{name: "campaign_p50_ms", value: campaignMS.median(), unit: "ms", n: campaignMS.n(), note: "spec -> first served /v1/report"},
		tailMetric("campaign_tail_ms", &campaignMS, "ms"),
		metric{name: "sessions_per_s", value: rawPerSess.median(), unit: "1/s", n: rawPerSess.n(), note: fmt.Sprintf("raw, %d sessions per campaign", plain[0].sessions)},
		metric{name: "bytes_per_session", value: bytesPer.median(), unit: "B", n: bytesPer.n(), note: "store bytes on disk / sessions"},
		metric{name: "truth_coverage", value: ratio(covered, float64(pairs)), unit: "ratio", n: pairs,
			note: "share of (session, arm) pairs whose SSIM truth is inside the Veritas range (+-0.002)"},
	)
	return res, nil
}

func (w *whatif) outPath(suffix string) string {
	return filepath.Join(w.cfg.outDir, fmt.Sprintf("%s-seed%d-%s", w.cfg.workload, w.cfg.seed, suffix))
}

// baseOptions is the campaign every iteration runs, minus its matrix and
// persistence.
func (w *whatif) baseOptions(seed int64) []veritas.CampaignOption {
	return []veritas.CampaignOption{
		veritas.WithSeed(seed),
		veritas.WithSessions(w.cfg.sessionsPer),
		veritas.WithChunks(w.cfg.chunks),
		veritas.WithDeployedBuffer(5),
		veritas.WithSamples(w.cfg.samples),
		veritas.WithWorkers(w.cfg.workers),
	}
}

// setup materializes the corpus and what-if matrix several times and
// returns the times scaled by the machine slowdown and raw, plus how long
// the clip synthesis and the corpus trace generation took on their own.
func (w *whatif) setup(cal *calibrator) (setup, raw, video, traces []float64, err error) {
	for r := 0; r < w.cfg.setupReps; r++ {
		slow := cal.slowdown()
		t0 := time.Now()
		c, err := veritas.NewCampaign(append(w.baseOptions(w.cfg.seed), veritas.WithMatrix(whatifABRs, whatifBuffers))...)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		if _, err := c.Corpus(); err != nil {
			return nil, nil, nil, nil, err
		}
		if _, err := c.Arms(); err != nil {
			return nil, nil, nil, nil, err
		}
		raw = append(raw, time.Since(t0).Seconds())
		setup = append(setup, time.Since(t0).Seconds()/slow)

		t0 = time.Now()
		veritas.DefaultVideo(1)
		video = append(video, time.Since(t0).Seconds())
		t0 = time.Now()
		for si, name := range veritas.Scenarios() {
			for i := 0; i < w.cfg.sessionsPer; i++ {
				if name == "square" {
					if _, err := trace.SquareWave(2, 6, 60, 720); err != nil {
						return nil, nil, nil, nil, err
					}
					continue
				}
				gcfg, err := trace.RegimeConfig(name, w.cfg.seed+int64(si)*10_000+int64(i))
				if err != nil {
					return nil, nil, nil, nil, err
				}
				if _, err := veritas.GenerateTrace(gcfg); err != nil {
					return nil, nil, nil, nil, err
				}
			}
		}
		traces = append(traces, time.Since(t0).Seconds())
	}
	return setup, raw, video, traces, nil
}

// iteration runs one campaign from its spec to the first report served
// from its cold-reopened store, then checks that report against a
// full-scan recompute.
func (w *whatif) iteration(i int, traced bool, res *result) (whatifIter, error) {
	var it whatifIter
	seed := w.cfg.seed*1000 + int64(i)
	dir := filepath.Join(w.work, fmt.Sprintf("store-%d", i))
	root, runID := w.rec.id(), w.rec.id()
	decorate := traced || w.cfg.chooseDelay > 0
	timer, armT := w.timer, w.armT
	if decorate && !traced {
		timer = &abrTimer{delay: w.cfg.chooseDelay}
		armT = timer
	}

	t0 := time.Now()
	opts := w.baseOptions(seed)
	if decorate {
		// The arms the matrix option would build, with every ABR factory
		// wrapped by the timing decorator.
		mc, err := veritas.NewCampaign(veritas.WithChunks(w.cfg.chunks), veritas.WithMatrix(whatifABRs, whatifBuffers))
		if err != nil {
			return it, err
		}
		arms, err := mc.Arms()
		if err != nil {
			return it, err
		}
		wrapped := make([]veritas.FleetArm, len(arms))
		for j, a := range arms {
			a.Setting.NewABR = armT.wrap(a.Setting.NewABR)
			wrapped[j] = a
		}
		opts = append(opts,
			veritas.WithDeployedABR(timer.wrap(func() abr.Algorithm { return abr.NewMPC() })),
			veritas.WithArms(wrapped...))
	} else {
		opts = append(opts, veritas.WithMatrix(whatifABRs, whatifBuffers))
	}
	// Each session's answer is complete once the engine has stored it and
	// reported progress.
	var answerMu sync.Mutex
	opts = append(opts, veritas.WithProgress(func(veritas.FleetSessionResult) {
		d := time.Since(t0)
		answerMu.Lock()
		it.answers = append(it.answers, d)
		answerMu.Unlock()
	}))
	var st *store.Store
	var sink *timedSink
	if traced {
		var err error
		if st, err = store.Open(dir, store.Options{}); err != nil {
			return it, err
		}
		sink = &timedSink{inner: st, rec: w.rec, parent: runID}
		opts = append(opts, veritas.WithSink(sink))
	} else {
		opts = append(opts, veritas.WithStore(dir))
	}
	c, err := veritas.NewCampaign(opts...)
	if err != nil {
		return it, err
	}
	tRun := time.Now()
	var fr *veritas.FleetResult
	if traced {
		// Engine workers inherit the label, so the profile can be cut to
		// the run phase.
		pprof.Do(context.Background(), pprof.Labels("phase", "run"), func(ctx context.Context) {
			fr, err = c.Run(ctx)
		})
	} else {
		fr, err = c.Run(context.Background())
	}
	if err != nil {
		return it, fmt.Errorf("campaign %d: %w", i, err)
	}
	tRunEnd := time.Now()
	if err := c.Close(); err != nil {
		return it, err
	}
	if st != nil {
		if err := st.Close(); err != nil {
			return it, err
		}
	}

	// Cold reopen and serve the first report.
	tCold := time.Now()
	c2, err := veritas.NewCampaign(veritas.WithStore(dir), veritas.WithReadOnlyStore())
	if err != nil {
		return it, err
	}
	defer c2.Close()
	st2, err := c2.Store()
	if err != nil {
		return it, err
	}
	tOpened := time.Now()
	tPartials := tOpened
	if traced {
		if _, err := st2.Partials(); err != nil {
			return it, err
		}
		tPartials = time.Now()
	}
	h, err := c2.Handler()
	if err != nil {
		return it, err
	}
	if traced {
		h = w.serve.wrap(h)
	}
	w.lb.set(h)
	reqID := w.rec.id()
	tReq := time.Now()
	status, _, body, err := w.lb.get("/v1/report", reqID, "")
	t1 := time.Now()
	res.attempted += 2 // the campaign and the served report
	it.elapsed = t1.Sub(t0)
	it.sessions = fr.Executed

	if traced {
		w.rec.record(runID, root, "engine.run", "", tRun, tRunEnd)
		w.rec.record(0, root, "store.open", "", tCold, tOpened)
		w.rec.record(0, root, "store.partials", "", tOpened, tPartials)
		w.rec.record(reqID, root, "http.request", "/v1/report", tReq, t1)
		w.rec.record(root, 0, "campaign", fmt.Sprintf("seed-%d", seed), t0, t1)
		it.run = tRunEnd.Sub(tRun)
		it.workers = fr.Workers
		it.snap = c.Telemetry()
		it.open = tOpened.Sub(tCold)
		it.partials = tPartials.Sub(tOpened)
		w.sink.merge(&sink.d)
	}

	// Output check: the report served from partials equals the encoding of
	// a full-scan recompute over the same store.
	switch {
	case err != nil:
		res.fail("campaign %d: GET /v1/report: %v", i, err)
	case status != 200:
		res.fail("campaign %d: GET /v1/report: HTTP %d", i, status)
	default:
		rep, err := c2.Report()
		if err != nil {
			return it, err
		}
		want, err := json.Marshal(rep)
		if err != nil {
			return it, err
		}
		if !bytes.Equal(body, want) {
			res.fail("campaign %d: served /v1/report differs from the full-scan recompute", i)
		}
		for _, arm := range rep.Arms {
			for _, m := range arm.Metrics {
				if m.Metric == "SSIM" && m.Coverage != nil {
					it.pairs += rep.Sessions
					it.covered += *m.Coverage * float64(rep.Sessions)
				}
			}
		}
	}
	if it.bytes, err = dirBytes(dir); err != nil {
		return it, err
	}
	if err := c2.Close(); err != nil {
		return it, err
	}
	return it, os.RemoveAll(dir)
}

// layers fills the per-layer ledger from the traced iterations. Engine and
// ABR seconds are per campaign, so runs of different lengths compare.
func (w *whatif) layers(res *result, traced, plain []whatifIter, pprofShares map[string]float64, video, traces []float64) {
	L := res.layers
	n := float64(len(traced))
	var sim, abd, rep, sess, capacity float64
	var hits, misses, pHits, pMisses uint64
	var open, partials, tracedMS, plainMS dist
	var appends int
	for _, it := range traced {
		h := it.snap.Histograms
		sim += h[`veritas_engine_stage_seconds{stage="simulate"}`].Sum
		abd += h[`veritas_engine_stage_seconds{stage="abduct"}`].Sum
		rep += h[`veritas_engine_stage_seconds{stage="replay"}`].Sum
		sess += h["veritas_engine_session_seconds"].Sum
		capacity += float64(it.workers) * it.run.Seconds()
		c := it.snap.Counters
		hits += c["veritas_engine_emission_cache_hits_total"]
		misses += c["veritas_engine_emission_cache_misses_total"]
		pHits += c["veritas_engine_power_cache_hits_total"]
		pMisses += c["veritas_engine_power_cache_misses_total"]
		open.add(it.open.Seconds())
		partials.add(it.partials.Seconds())
		tracedMS.addDur(it.elapsed, time.Millisecond)
		appends += it.sessions
	}
	for _, it := range plain {
		plainMS.addDur(it.elapsed, time.Millisecond)
	}
	simABR, armABR := w.timer.stats(), w.armT.stats()
	abrSim, abrRep := simABR.sum.Seconds(), armABR.sum.Seconds()
	all := simABR
	all.merge(&armABR)
	storeS := w.sink.sum() / 1e6

	L["engine.simulate_s"] = sim / n
	L["engine.abduct_s"] = abd / n
	L["engine.replay_s"] = rep / n
	L["engine.busy_ratio"] = ratio(sess+storeS, capacity)
	L["engine.estimator_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	L["engine.power_cache_hit_ratio"] = ratio(float64(pHits), float64(pHits+pMisses))
	L["abr.simulate_choose_s"] = abrSim / n
	L["abr.replay_choose_s"] = abrRep / n
	L["abr.choose_calls"] = float64(all.n) / n
	L["abr.choose_us_p50"] = float64(all.pct(50)) / 1e3
	L["player.self_s"] = (sim - abrSim) / n
	L["replay.self_s"] = (rep - abrRep) / n
	L["video.synthesize_s"] = medianOf(video)
	L["trace.generate_s"] = medianOf(traces)
	L["store.append_us_p50"] = w.sink.median()
	L["store.append_us_p99"] = w.sink.pct(99)
	L["store.appends"] = float64(appends) / n
	L["store.open_s"] = open.median()
	L["store.partials_s"] = partials.median()
	if d := w.serve.endpoint("report"); d != nil {
		L["serve.report_us_p50"] = d.median()
		L["serve.report_us_p99"] = d.pct(99)
	}
	spans := w.rec.snapshot()
	self := selfTimes(spans)
	var overhead, coldReport dist
	starts := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Name == "store.open" {
			starts[s.Parent] = s.Start
		}
	}
	for _, s := range spans {
		if s.Name == "http.request" {
			overhead.addDur(self[s.ID], time.Microsecond)
			coldReport.addDur(s.End-starts[s.Parent], time.Second)
		}
	}
	L["http.overhead_us_p50"] = overhead.median()
	L["store.cold_report_s"] = coldReport.median()
	L["trace.overhead_ratio"] = ratio(tracedMS.median(), plainMS.median())

	var pairs int
	var covered float64
	for _, it := range traced {
		pairs += it.pairs
		covered += it.covered
	}
	L["abduction.truth_coverage"] = ratio(covered, float64(pairs))
	var bytesPer dist
	for _, it := range traced {
		bytesPer.add(float64(it.bytes) / float64(it.sessions))
	}
	L["store.bytes_per_session"] = bytesPer.median()

	// The ledger: each layer's share of the workers' busy time in the run
	// phase (engine sessions plus store appends).
	busy := sess + storeS
	shares := map[string]float64{
		"abr":       ratio(abrSim+abrRep, busy),
		"player":    ratio(sim-abrSim, busy),
		"abduction": ratio(abd, busy),
		"replay":    ratio(rep-abrRep, busy),
		"store":     ratio(storeS, busy),
	}
	shares["other"] = 1 - shares["abr"] - shares["player"] - shares["abduction"] - shares["replay"] - shares["store"]
	for _, l := range ledgerLayers {
		L["ledger."+l+"_share"] = shares[l]
		L["ledger."+l+"_pprof_diff_pts"] = 100 * (shares[l] - pprofShares[l])
	}
	res.detail = append(res.detail, metric{name: "ledger vs pprof", value: float64(len(traced)), unit: "campaigns",
		note: ledgerNote(shares, pprofShares)})
}

func ledgerNote(ledger, prof map[string]float64) string {
	var b bytes.Buffer
	for _, l := range ledgerLayers {
		fmt.Fprintf(&b, "%s %.1f%% (pprof %.1f%%); ", l, 100*ledger[l], 100*prof[l])
	}
	return b.String()
}
