package store

import (
	"container/list"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"veritas/internal/engine"
	"veritas/internal/stats"
	"veritas/internal/telemetry"
	"veritas/internal/tracing"
)

// ServeOptions configures the HTTP query handler.
//
// Deprecated uses of this struct via NewHandler keep working; new code
// should build handlers through veritas/internal/serve, whose options
// compile down to exactly this struct.
type ServeOptions struct {
	// CacheEntries bounds the in-process read cache of decoded session
	// rows (default 256; negative disables caching).
	CacheEntries int
	// Telemetry is the registry /metrics and /v1/status expose —
	// usually the campaign's, so engine and store metrics appear
	// alongside the serving layer's own request counters and row-cache
	// fold-ins. Nil gets a private registry: the endpoints then carry
	// serve-side metrics only.
	Telemetry *telemetry.Registry
	// Tracer, when set, records a tail-sampled trace per served request
	// (5xx responses count as errored) and is what GET /v1/trace exports
	// as Chrome trace-event JSON. Nil disables request tracing; the
	// endpoint then serves an empty (but valid) trace file.
	Tracer *tracing.Tracer
	// TraceSource, when set, overrides the trace set /v1/trace exports —
	// the facade uses it to serve a fleet-merged view (the campaign's own
	// traces plus what dispatch workers streamed up) instead of just the
	// local tracer's.
	TraceSource func() []tracing.Trace
	// WatchInterval rate-limits the store refresh a handler over a
	// watch-mode store (OpenWatch) runs before answering: at most one
	// refresh per interval, 0 meaning every request re-checks. Ignored
	// for ordinary stores, which never change shape under a reader.
	WatchInterval time.Duration
}

func (o ServeOptions) cacheEntries() int {
	if o.CacheEntries == 0 {
		return 256
	}
	if o.CacheEntries < 0 {
		return 0
	}
	return o.CacheEntries
}

// reportCacheCap bounds the per-query response cache. The key space is
// per (endpoint, filter) combination, so a scan of percentile spellings
// could otherwise grow it without bound; at the cap the whole map is
// dropped (every entry dies together at the next generation anyway).
const reportCacheCap = 256

// handler is the HTTP query API over a store — the serving layer brick
// that makes results persisted by campaigns queryable without re-running
// any inference.
//
//	GET /healthz                    liveness + store and cache counters
//	GET /v1/sessions[?scenario=]    list stored sessions (index only, no payload reads)
//	GET /v1/sessions/{id}           one session's full what-if results
//	GET /v1/scenarios               scenario labels with session counts
//	GET /v1/report                  aggregate report (same JSON as the in-RAM
//	                                campaign report), served from incremental partials
//	GET /v1/report/cdf              empirical CDF of one (arm, metric, estimator)
//	GET /v1/report/series           the raw per-session series behind the CDF
//	GET /v1/report/percentiles      chosen percentiles of the same series
//	GET /v1/status                  store + telemetry snapshot as JSON
//	GET /metrics                    the telemetry registry in Prometheus text format
//
// The report family shares one filter grammar (see query.go) and one
// JSON error envelope, carries a store-generation ETag, and honors
// If-None-Match with 304 Not Modified. Bodies are cached per query and
// invalidated by generation; the aggregates behind them are incremental
// (engine.Partials folded per append), so a report is O(arms) however
// large the corpus has grown.
//
// Hot sessions are served from a bounded LRU of decoded rows. A handler
// over a writable store picks up appends through the shared *Store
// handle; over a watch store (OpenWatch) each request first refreshes
// the tail — rate-limited by ServeOptions.WatchInterval — so a server
// started mid-campaign tracks the campaign live. A plain read-only
// store is a snapshot: restart (or reopen) to see later progress.
type handler struct {
	s      *Store
	mux    *http.ServeMux
	rows   *rowCache
	reg    *telemetry.Registry
	trc    *tracing.Tracer
	traces func() []tracing.Trace

	watchEvery  time.Duration // -1: not a watch store
	refreshErrs *telemetry.Counter
	watchMu     sync.Mutex
	lastRefresh time.Time

	reports reportCache
}

type cachedReport struct {
	gen  uint64
	body []byte
}

// reportCache is the generation-keyed response cache the report family
// shares: bodies live until the generation moves or the cap evicts
// everything (every entry dies together at the next generation anyway).
type reportCache struct {
	mu sync.Mutex
	m  map[string]cachedReport
}

func (c *reportCache) get(key string, gen uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok && e.gen == gen {
		return e.body, true
	}
	return nil, false
}

func (c *reportCache) put(key string, gen uint64, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil || len(c.m) >= reportCacheCap {
		c.m = make(map[string]cachedReport)
	}
	c.m[key] = cachedReport{gen: gen, body: body}
}

func (c *reportCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m = nil
}

// NewHandler builds the query handler over an open store.
//
// Deprecated: use veritas/internal/serve.New, which builds the same
// handler from functional options. NewHandler remains as a
// compatibility shim and compiles against the same implementation.
func NewHandler(s *Store, opt ServeOptions) http.Handler { return newHandler(s, opt) }

func newHandler(s *Store, opt ServeOptions) http.Handler {
	reg := opt.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	h := &handler{
		s:          s,
		rows:       newRowCache(opt.cacheEntries()),
		reg:        reg,
		trc:        opt.Tracer,
		traces:     opt.TraceSource,
		watchEvery: -1,
	}
	if s.IsWatch() {
		h.watchEvery = opt.WatchInterval
		h.refreshErrs = reg.Counter("veritas_serve_watch_refresh_errors_total")
	}
	if h.traces == nil {
		h.traces = opt.Tracer.Traces
	}
	// The row cache keeps its own counters (they predate telemetry);
	// fold them in as callback metrics rather than double-counting.
	reg.RegisterFunc("veritas_serve_row_cache_hits_total", telemetry.CounterFunc, func() float64 {
		hits, _ := h.rows.stats()
		return float64(hits)
	})
	reg.RegisterFunc("veritas_serve_row_cache_misses_total", telemetry.CounterFunc, func() float64 {
		_, misses := h.rows.stats()
		return float64(misses)
	})
	mux := http.NewServeMux()
	h.route(mux, "GET /healthz", "/healthz", h.health)
	h.route(mux, "GET /v1/sessions", "/v1/sessions", h.sessions)
	h.route(mux, "GET /v1/sessions/{id}", "/v1/sessions/{id}", h.session)
	h.route(mux, "GET /v1/scenarios", "/v1/scenarios", h.scenarios)
	h.route(mux, "GET /v1/report", "/v1/report", h.report)
	h.route(mux, "GET /v1/report/cdf", "/v1/report/cdf", h.reportCDF)
	h.route(mux, "GET /v1/report/series", "/v1/report/series", h.reportSeries)
	h.route(mux, "GET /v1/report/percentiles", "/v1/report/percentiles", h.reportPercentiles)
	h.route(mux, "GET /v1/status", "/v1/status", h.status)
	h.route(mux, "GET /v1/trace", "/v1/trace", h.trace)
	mux.HandleFunc("GET /metrics", h.metrics)
	h.mux = mux
	return h
}

// maybeRefresh tails the watch store before a request is answered, at
// most once per WatchInterval. Refresh errors keep the last good view
// serving (a campaign mid-rotation is not an outage) and are counted.
func (h *handler) maybeRefresh() {
	if h.watchEvery < 0 {
		return
	}
	if h.watchEvery > 0 {
		h.watchMu.Lock()
		if time.Since(h.lastRefresh) < h.watchEvery {
			h.watchMu.Unlock()
			return
		}
		h.lastRefresh = time.Now()
		h.watchMu.Unlock()
	}
	if _, err := h.s.Refresh(); err != nil {
		h.refreshErrs.Inc()
	}
}

// route registers fn on the mux with a per-endpoint request counter and
// latency histogram spliced in front. path is the label value (the mux
// pattern minus its method). With a tracer present each request also
// becomes a tail-sampled trace (5xx = errored); without one the
// response writer is passed through untouched.
func (h *handler) route(mux *http.ServeMux, pattern, path string, fn http.HandlerFunc) {
	reqs := h.reg.Counter(fmt.Sprintf("veritas_serve_requests_total{path=%q}", path))
	lat := h.reg.Histogram(fmt.Sprintf("veritas_serve_request_seconds{path=%q}", path))
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		reqs.Inc()
		h.maybeRefresh()
		if h.trc == nil {
			fn(w, r)
			lat.Since(t0)
			return
		}
		tb := h.trc.Start("request", path)
		sw := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		fn(sw, r)
		tb.SetAttr("status", sw.code)
		var err error
		if sw.code >= 500 {
			err = fmt.Errorf("HTTP %d", sw.code)
		}
		tb.Finish(err)
		lat.Since(t0)
	})
}

// statusRecorder captures the response code for request traces.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

// trace exports the notable-trace set as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing.
func (h *handler) trace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := tracing.WriteChrome(w, h.traces()); err != nil {
		writeAPIError(w, errInternal(err))
	}
}

func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.reg.WritePrometheus(w)
}

func (h *handler) status(w http.ResponseWriter, r *http.Request) {
	hits, misses := h.rows.stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"sessions":       h.s.Len(),
		"scenarios":      len(h.s.Scenarios()),
		"generation":     h.s.Generation(),
		"recoveredBytes": h.s.Recovered(),
		"cache":          map[string]uint64{"hits": hits, "misses": misses},
		"telemetry":      h.reg.Snapshot(),
	})
}

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func (h *handler) health(w http.ResponseWriter, r *http.Request) {
	hits, misses := h.rows.stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"sessions":       h.s.Len(),
		"recoveredBytes": h.s.Recovered(),
		"cacheHits":      hits,
		"cacheMisses":    misses,
	})
}

func (h *handler) sessions(w http.ResponseWriter, r *http.Request) {
	infos := h.s.Sessions(r.URL.Query().Get("scenario"))
	if infos == nil {
		infos = []SessionInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(infos), "sessions": infos})
}

func (h *handler) session(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// The record's version (its on-disk location) gates the cache:
	// overwriting a session moves it, so the stale row misses, while
	// untouched hot sessions keep hitting however much the rest of the
	// store grows.
	ver, ok := h.s.Version(id)
	if !ok {
		writeAPIError(w, errNotFound("", "unknown session %q", id))
		return
	}
	if row, ok := h.rows.get(id, ver); ok {
		writeJSON(w, http.StatusOK, row)
		return
	}
	row, ok, err := h.s.Get(id)
	if err != nil {
		writeAPIError(w, errInternal(err))
		return
	}
	if !ok {
		writeAPIError(w, errNotFound("", "unknown session %q", id))
		return
	}
	h.rows.put(id, ver, row)
	writeJSON(w, http.StatusOK, row)
}

func (h *handler) scenarios(w http.ResponseWriter, r *http.Request) {
	scens := h.s.Scenarios()
	if scens == nil {
		scens = []ScenarioInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": scens})
}

// reportETag derives the report's validator from the store generation:
// the generation moves on every append (including same-key overwrites),
// so an unchanged tag proves the aggregate is still current for any
// scenario filter.
func reportETag(gen uint64) string { return fmt.Sprintf("\"report-%d\"", gen) }

// etagMatches implements the If-None-Match comparison for the strong
// validators this handler emits: a wildcard or any listed tag equal to
// the current one.
func etagMatches(header, etag string) bool {
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		// Weak-comparison prefix: a cache may legitimately send back
		// W/"..." for a tag it received strong.
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == "*" || candidate == etag {
			return true
		}
	}
	return false
}

// validateQuery runs the store-backed half of query validation: do the
// scenario, ABR prefix, and arm the filters name actually exist in the
// (scenario-restricted) corpus? needArm marks the series endpoints,
// which aggregate one arm and cannot default it.
func validateQuery(q *reportQuery, p *engine.Partials, needArm bool) *apiError {
	if q.scenarioSet && q.scenario == "" {
		// `?scenario=` used to fall through as "no filter" and serve the
		// whole corpus — an empty 200 for what is really a malformed
		// filter. An empty label is not a scenario: reject it.
		return errNotFound("scenario", "unknown scenario %q", q.scenario)
	}
	if q.scenario != "" && !p.HasScenario(q.scenario) {
		return errNotFound("scenario", "unknown scenario %q", q.scenario)
	}
	arms := p.ArmUnion(q.scenario)
	if armOK := q.armOK(); armOK != nil {
		matched := false
		for _, a := range arms {
			if armOK(a) {
				matched = true
				break
			}
		}
		if !matched {
			return errNotFound("abr", "no arm matches ABR %q", q.abr)
		}
	}
	if needArm {
		if q.arm == "" {
			return errBadParam("arm", "arm parameter required (one of: %s)", strings.Join(arms, ", "))
		}
		known := false
		for _, a := range arms {
			if a == q.arm {
				known = true
				break
			}
		}
		if !known {
			return errNotFound("arm", "unknown arm %q (have: %s)", q.arm, strings.Join(arms, ", "))
		}
	}
	return nil
}

// serveReportFamily is the shared skeleton of every report endpoint —
// the store-backed /v1/report family here and the shard-combined
// /v1/live family in live.go: consult the generation-keyed response
// cache, validate against the partials, honor If-None-Match, then build
// and cache the body.
//
// Two ordering rules carry over from the original report handler and
// are pinned by tests: a cached body at the current generation skips
// validation entirely (it proves the query was valid when built and
// nothing changed since), and the 304 check runs only after validation,
// so a conditional request can never turn a 404 into a 304.
func serveReportFamily(w http.ResponseWriter, r *http.Request, q *reportQuery, endpoint string, needArm bool,
	cache *reportCache, gen uint64, etag string,
	partials func() (*engine.Partials, error),
	build func(q *reportQuery, p *engine.Partials) any) {
	key := q.cacheKey(endpoint)
	if body, ok := cache.get(key, gen); ok {
		w.Header().Set("ETag", etag)
		if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return
	}
	p, err := partials()
	if err != nil {
		writeAPIError(w, errInternal(err))
		return
	}
	if aerr := validateQuery(q, p, needArm); aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	// The tag is generation-keyed, so a match makes building the body
	// pointless even when none is cached — but it must come after
	// validation, or a conditional request could turn a 404 into a 304.
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body, err := json.Marshal(build(q, p))
	if err != nil {
		writeAPIError(w, errInternal(err))
		return
	}
	cache.put(key, gen, body)
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// reportFamily binds serveReportFamily to this handler's store: the
// store generation keys the cache and the ETag, and the store's lazily
// built partials answer the query.
func (h *handler) reportFamily(w http.ResponseWriter, r *http.Request, endpoint string, needArm bool,
	build func(q *reportQuery, p *engine.Partials) any) {
	q, aerr := parseReportQuery(r.URL.Query())
	if aerr != nil {
		writeAPIError(w, aerr)
		return
	}
	gen := h.s.Generation()
	serveReportFamily(w, r, q, endpoint, needArm, &h.reports, gen, reportETag(gen), h.s.Partials, build)
}

func (h *handler) report(w http.ResponseWriter, r *http.Request) {
	h.reportFamily(w, r, "report", false, buildReport)
}

func (h *handler) reportCDF(w http.ResponseWriter, r *http.Request) {
	h.reportFamily(w, r, "cdf", true, buildCDF)
}

func (h *handler) reportSeries(w http.ResponseWriter, r *http.Request) {
	h.reportFamily(w, r, "series", true, buildSeries)
}

func (h *handler) reportPercentiles(w http.ResponseWriter, r *http.Request) {
	h.reportFamily(w, r, "percentiles", true, buildPercentiles)
}

// seriesMeta is the header block every series-shaped response carries,
// echoing the resolved filters so a client never has to re-derive what
// defaults applied.
type seriesMeta struct {
	Scenario  string `json:"scenario,omitempty"`
	Arm       string `json:"arm"`
	Metric    string `json:"metric"`
	Estimator string `json:"estimator"`
	N         int    `json:"n"`
}

func metaFor(q *reportQuery, n int) seriesMeta {
	return seriesMeta{
		Scenario:  q.scenario,
		Arm:       q.arm,
		Metric:    q.metricKey,
		Estimator: string(q.estimator),
		N:         n,
	}
}

type cdfResponse struct {
	seriesMeta
	Points []stats.CDFPoint `json:"points"`
}

type seriesResponse struct {
	seriesMeta
	Values []float64 `json:"values"`
}

type percentileValue struct {
	P     float64 `json:"p"`
	Value float64 `json:"value"`
}

type percentilesResponse struct {
	seriesMeta
	Percentiles []percentileValue `json:"percentiles"`
}

func buildReport(q *reportQuery, p *engine.Partials) any {
	return p.ReportFiltered(q.scenario, q.armOK())
}

func buildCDF(q *reportQuery, p *engine.Partials) any {
	series := p.Series(q.scenario, q.arm, q.estimator, q.metricIdx)
	points := stats.CDF(series)
	if points == nil {
		points = []stats.CDFPoint{}
	}
	return cdfResponse{seriesMeta: metaFor(q, len(series)), Points: points}
}

func buildSeries(q *reportQuery, p *engine.Partials) any {
	series := p.Series(q.scenario, q.arm, q.estimator, q.metricIdx)
	if series == nil {
		series = []float64{}
	}
	return seriesResponse{seriesMeta: metaFor(q, len(series)), Values: series}
}

func buildPercentiles(q *reportQuery, p *engine.Partials) any {
	series := p.Series(q.scenario, q.arm, q.estimator, q.metricIdx)
	vals := stats.Percentiles(series, q.percentiles)
	out := make([]percentileValue, len(vals)) // empty series: empty list, never NaN
	for i, v := range vals {
		out[i] = percentileValue{P: q.percentiles[i], Value: v}
	}
	return percentilesResponse{seriesMeta: metaFor(q, len(series)), Percentiles: out}
}

// rowCache is a small mutex-guarded LRU of decoded session rows.
type rowCache struct {
	mu           sync.Mutex
	cap          int
	ll           *list.List // front = most recent
	items        map[string]*list.Element
	hits, misses uint64
}

type rowItem struct {
	key string
	ver string
	row engine.SessionRow
}

func newRowCache(capacity int) *rowCache {
	return &rowCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached row for key only if it was cached at the same
// record version; a stale entry counts as a miss (and is replaced on
// the following put).
func (c *rowCache) get(key, ver string) (engine.SessionRow, bool) {
	if c.cap == 0 {
		return engine.SessionRow{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok && el.Value.(rowItem).ver == ver {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(rowItem).row, true
	}
	c.misses++
	return engine.SessionRow{}, false
}

func (c *rowCache) put(key, ver string, row engine.SessionRow) {
	if c.cap == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value = rowItem{key: key, ver: ver, row: row}
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(rowItem{key: key, ver: ver, row: row})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(rowItem).key)
	}
}

func (c *rowCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
