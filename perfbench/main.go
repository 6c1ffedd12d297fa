// Command perfbench is the repository's benchmark: three workloads that
// drive the program through its public entry points, each from seeded,
// generated inputs, measuring end-to-end numbers untraced and a per-layer
// ledger in a separate traced run.
//
//	go build -o perfbench . && ./perfbench --workload whatif-campaign --seed 1 --seconds 25 --trace 0
//
// It prints one human-readable line per metric (value, unit, sample
// count), then, as its last line, a JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
// --trace 1 the per-layer ones. DESIGN.md documents the workloads, the
// metrics and which layer metric should move which end-to-end metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// config is one run's settings. The sizes default to the benchmark's
// workloads; tests shrink them for smoke runs.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string // spans, profiles and scratch stores
	workers  int    // engine workers, callers and client connections

	setupReps int

	// whatif-campaign
	sessionsPer int
	chunks      int
	samples     int
	chooseDelay time.Duration // spin added to every ABR decision (tests only)

	// interventional
	iSessions int // sessions per trace regime

	// live-query
	storeRows int
	coldReps  int
	readRate  float64 // reads per second, open loop
	writeRate float64 // appends per second, open loop
}

func defaultConfig() config {
	return config{
		seconds:     25,
		outDir:      filepath.Join(".bench_build", "out"),
		workers:     runtime.NumCPU(),
		setupReps:   5,
		sessionsPer: 8,
		chunks:      0, // the full 300-chunk clip
		samples:     5,
		iSessions:   256,
		storeRows:   2048,
		coldReps:    3,
		readRate:    80,
		writeRate:   20,
	}
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int    // samples behind the value; 0 when it is a single reading
	note  string // e.g. which percentile a tail is
}

// result is what a workload hands back: its end-to-end metrics, the
// per-layer ones (traced runs only), the workload-specific numbers
// printed beside them (not gated) and the operation counts.
type result struct {
	e2e       []metric
	detail    []metric
	layers    map[string]float64
	attempted int
	failed    int
	problems  []string
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// endToEnd lists the gated end-to-end metrics every workload reports;
// DESIGN.md says what each means on each workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
}

// perLayer lists the traced run's per-layer metrics. Every workload
// reports all of them; a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"engine.simulate_s", "s"},
	{"engine.abduct_s", "s"},
	{"engine.replay_s", "s"},
	{"engine.busy_ratio", "ratio"},
	{"engine.estimator_hit_ratio", "ratio"},
	{"engine.power_cache_hit_ratio", "ratio"},
	{"abr.simulate_choose_s", "s"},
	{"abr.replay_choose_s", "s"},
	{"abr.choose_calls", "count"},
	{"abr.choose_us_p50", "us"},
	{"player.self_s", "s"},
	{"replay.self_s", "s"},
	{"abduction.abduct_ms_p50", "ms"},
	{"abduction.abduct_ms_p99", "ms"},
	{"abduction.chunks_per_query", "count"},
	{"abduction.predict_us_p50", "us"},
	{"abduction.pred_err_ms", "ms"},
	{"abduction.truth_coverage", "ratio"},
	{"tcp.estimate_calls", "count"},
	{"video.synthesize_s", "s"},
	{"trace.generate_s", "s"},
	{"store.append_us_p50", "us"},
	{"store.append_us_p99", "us"},
	{"store.appends", "count"},
	{"store.bytes_per_session", "B"},
	{"store.open_s", "s"},
	{"store.partials_s", "s"},
	{"store.cold_report_s", "s"},
	{"store.watch_refreshes", "count"},
	{"store.watch_rows", "count"},
	{"store.rotations", "count"},
	{"serve.report_us_p50", "us"},
	{"serve.report_us_p99", "us"},
	{"serve.cdf_us_p50", "us"},
	{"serve.cdf_us_p99", "us"},
	{"serve.series_us_p50", "us"},
	{"serve.series_us_p99", "us"},
	{"serve.percentiles_us_p50", "us"},
	{"serve.percentiles_us_p99", "us"},
	{"serve.sessions_us_p50", "us"},
	{"serve.sessions_us_p99", "us"},
	{"serve.session_us_p50", "us"},
	{"serve.session_us_p99", "us"},
	{"serve.scenarios_us_p50", "us"},
	{"serve.scenarios_us_p99", "us"},
	{"serve.not_modified_ratio", "ratio"},
	{"serve.row_cache_hit_ratio", "ratio"},
	{"http.overhead_us_p50", "us"},
	{"load.late_ms_p99", "ms"},
	{"load.append_p99_ms", "ms"},
	{"load.sent", "count"},
	{"load.failed", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"ledger.abr_share", "ratio"},
	{"ledger.player_share", "ratio"},
	{"ledger.abduction_share", "ratio"},
	{"ledger.replay_share", "ratio"},
	{"ledger.store_share", "ratio"},
	{"ledger.serve_share", "ratio"},
	{"ledger.http_share", "ratio"},
	{"ledger.other_share", "ratio"},
	{"ledger.abr_pprof_diff_pts", "pts"},
	{"ledger.player_pprof_diff_pts", "pts"},
	{"ledger.abduction_pprof_diff_pts", "pts"},
	{"ledger.replay_pprof_diff_pts", "pts"},
	{"ledger.store_pprof_diff_pts", "pts"},
	{"ledger.other_pprof_diff_pts", "pts"},
}

var workloads = map[string]func(cfg config) (*result, error){
	"whatif-campaign": runWhatif,
	"interventional":  runInterventional,
	"live-query":      runLiveQuery,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload: whatif-campaign, interventional or live-query")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.trace = *traceFlag == 1
	res, err := runWorkload(cfg, fn)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := report(stdout, cfg, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func runWorkload(cfg config, fn func(config) (*result, error)) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	res, err := fn(cfg)
	if err != nil {
		return nil, err
	}
	// Peak RSS swings with GC timing (IQR/median up to 0.5 across seeds on
	// the interventional workload), so it is printed but not gated.
	res.detail = append(res.detail, metric{name: "peak_rss_mb", value: peakRSSMiB(), unit: "MiB"})
	return res, nil
}

// report prints every metric by name with its unit and sample count, then
// the result line.
func report(w io.Writer, cfg config, res *result) error {
	bw := bufio.NewWriter(w)
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(bw, "== %s seed=%d seconds=%g %s workers=%d ==\n", cfg.workload, cfg.seed, cfg.seconds, mode, cfg.workers)
	line := func(m metric) {
		n := ""
		if m.n > 0 {
			n = "n=" + strconv.Itoa(m.n)
		}
		fmt.Fprintf(bw, "  %-34s %16.6g %-8s %-9s %s\n", m.name, m.value, m.unit, n, m.note)
	}
	fmt.Fprintln(bw, "-- workload metrics --")
	for _, m := range res.detail {
		line(m)
	}
	line(metric{name: "error_ratio", value: ratio(float64(res.failed), float64(res.attempted)), unit: "ratio", n: res.attempted,
		note: "failed or wrong / attempted, output checks included"})
	fmt.Fprintln(bw, "-- end-to-end --")
	e2e := map[string]metric{}
	for _, m := range res.e2e {
		line(m)
		e2e[m.name] = m
	}
	metrics := map[string]any{}
	if cfg.trace {
		fmt.Fprintln(bw, "-- per-layer --")
		for _, l := range perLayer {
			v := res.layers[l.name]
			line(metric{name: l.name, value: v, unit: l.unit})
			metrics[l.name] = map[string]any{"value": finite(v), "unit": l.unit}
		}
	} else {
		for _, e := range endToEnd {
			m, ok := e2e[e.name]
			if !ok {
				return fmt.Errorf("workload did not report %s", e.name)
			}
			metrics[e.name] = map[string]any{"value": finite(m.value), "unit": e.unit}
		}
	}
	fmt.Fprintf(bw, "-- checks: %d attempted, %d failed --\n", res.attempted, res.failed)
	for _, p := range res.problems {
		fmt.Fprintf(bw, "  FAILED: %s\n", p)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\n", out)
	return bw.Flush()
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// tailMetric reports the highest percentile the ten-beyond rule allows
// at this sample count, or the median when it allows none.
func tailMetric(name string, d *dist, unit string) metric {
	if p, v, ok := d.tail(); ok {
		return metric{name: name, value: v, unit: unit, n: d.n(), note: fmt.Sprintf("p%g (highest with >=10 beyond)", p)}
	}
	return metric{name: name, value: d.median(), unit: unit, n: d.n(), note: "too few samples for a tail; median"}
}

// pctMetric reports the p-th percentile and notes whether the ten-beyond
// rule allows it at this sample count.
func pctMetric(name string, d *dist, p float64, unit string) metric {
	note := ""
	if float64(d.n())*(1-p/100)+1e-9 < minBeyond {
		note = fmt.Sprintf("fewer than %d samples beyond p%g", minBeyond, p)
	}
	return metric{name: name, value: d.pct(p), unit: unit, n: d.n(), note: note}
}

// medianOf returns the median of xs.
func medianOf(xs []float64) float64 {
	d := dist{vals: append([]float64(nil), xs...)}
	return d.median()
}

// peakRSSMiB reads the process's peak resident set from /proc, falling
// back to the Go runtime's view of memory obtained from the OS.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "VmHWM:") {
				f := strings.Fields(l)
				if len(f) >= 2 {
					if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// loopback serves a swappable handler on a loopback port, so each cold
// reopen can be served over a real connection.
type loopback struct {
	srv    *http.Server
	url    string
	h      atomic.Pointer[http.Handler]
	served chan error
	client *http.Client
}

func startLoopback(conns int) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	l.set(http.NotFoundHandler())
	l.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*l.h.Load()).ServeHTTP(w, r)
	})}
	go func() { l.served <- l.srv.Serve(ln) }()
	l.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
	}
	return l, nil
}

func (l *loopback) set(h http.Handler) { l.h.Store(&h) }

// get fetches path and returns the status, ETag and body. spanID, when
// non-zero, is sent for the server-side middleware; etag, when set, makes
// the request conditional.
func (l *loopback) get(path string, spanID int64, etag string) (int, string, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, l.url+path, nil)
	if err != nil {
		return 0, "", nil, err
	}
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(spanID, 10))
	}
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("ETag"), body, err
}

// close stops the server and waits for it to return.
func (l *loopback) close() error {
	err := l.srv.Close()
	if serr := <-l.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	l.client.CloseIdleConnections()
	return err
}
