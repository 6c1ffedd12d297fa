// Package serve is the HTTP query tier over result stores, built with
// the same options style as the veritas Campaign facade:
//
//	h := serve.New(st,
//		serve.WithCacheEntries(512),
//		serve.WithTelemetry(reg),
//		serve.WithWatchInterval(250*time.Millisecond))
//
// New serves one store's /v1 surface (handler.go); NewLive serves the
// shard-combined /v1/live surface of a still-dispatching campaign
// (live.go). Both share the query grammar and error envelope in
// query.go. The store package itself carries no HTTP.
package serve

import (
	"net/http"
	"time"

	"veritas/internal/store"
	"veritas/internal/telemetry"
	"veritas/internal/tracing"
)

// config is what the options set.
type config struct {
	cacheEntries  int
	telemetry     *telemetry.Registry
	tracer        *tracing.Tracer
	traceSource   func() []tracing.Trace
	watchInterval time.Duration
}

// rowCacheEntries resolves the row-cache bound: 0 picks the default,
// negative disables caching.
func (c config) rowCacheEntries() int {
	if c.cacheEntries == 0 {
		return 256
	}
	if c.cacheEntries < 0 {
		return 0
	}
	return c.cacheEntries
}

// Option configures a query handler.
type Option func(*config)

// WithCacheEntries bounds the in-process read cache of decoded session
// rows (default 256; negative disables caching).
func WithCacheEntries(n int) Option {
	return func(c *config) { c.cacheEntries = n }
}

// WithTelemetry routes the handler's request counters — and the
// /metrics and /v1/status endpoints — through reg, so serving metrics
// appear alongside whatever else the registry carries. Without it the
// handler keeps a private registry with serve-side metrics only.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *config) { c.telemetry = reg }
}

// WithTracer records a tail-sampled trace per served request (5xx
// responses count as errored) and feeds GET /v1/trace. Without it the
// endpoint serves an empty, valid trace file.
func WithTracer(trc *tracing.Tracer) Option {
	return func(c *config) { c.tracer = trc }
}

// WithTraceSource overrides the trace set /v1/trace exports — the
// Campaign facade uses it to serve the fleet-merged view.
func WithTraceSource(fn func() []tracing.Trace) Option {
	return func(c *config) { c.traceSource = fn }
}

// WithWatchInterval rate-limits the tail refresh a handler over a
// watch-mode store runs before answering: at most one refresh per
// interval, 0 (the default) meaning every request re-checks. Ignored
// for ordinary stores.
func WithWatchInterval(d time.Duration) Option {
	return func(c *config) { c.watchInterval = d }
}

// New builds the query handler over an open store: the /v1 query
// surface (sessions, scenarios, the report family), /healthz, /v1/trace
// and /metrics. See handler for the full route table.
func New(st *store.Store, opts ...Option) http.Handler {
	var c config
	for _, opt := range opts {
		opt(&c)
	}
	return newHandler(st, c)
}

// liveRefreshEvery rate-limits the live tier's shard rediscovery and
// refresh: a dashboard polling mid-dispatch sees rows within a quarter
// second without every request re-listing the shard directory.
const liveRefreshEvery = 250 * time.Millisecond

// NewLive builds the live query tier over a still-dispatching
// campaign's shard directory: /v1/live/report (plus cdf, series,
// percentiles) and /v1/live/status, combining every shard store's
// partial aggregates on demand. parent may not exist yet; the handler
// serves an empty corpus until shards appear.
func NewLive(parent string) *LiveHandler { return newLive(parent, liveRefreshEvery) }
