package veritas

// Backward-compatibility shims: the pre-Campaign fleet surface, kept
// compiling so downstream code and old examples keep working. Each
// entry is a thin veneer over the same core the Campaign API drives;
// none of them will be removed, but new code should use NewCampaign.

import (
	"context"
	"net/http"

	"veritas/internal/engine"
	"veritas/internal/serve"
)

type (
	// FleetConfig sizes the engine: workers, shard size, posterior
	// samples, seed, memoization.
	//
	// Deprecated: build a Campaign instead; WithWorkers, WithSamples,
	// WithSeed, WithSink and WithoutMemoization cover these fields.
	FleetConfig = engine.Config
	// CorpusConfig describes a scenario-diverse synthetic corpus.
	//
	// Deprecated: build a Campaign instead; WithScenarios,
	// WithSessions, WithChunks, WithDeployedABR, WithDeployedBuffer
	// and WithSeed cover these fields.
	CorpusConfig = engine.CorpusConfig
)

// RunFleet executes batch causal queries: every corpus session is
// simulated (or taken from its log), inverted via Abduct, and replayed
// under every arm, fanned out across the engine's worker pool. Results
// are deterministic in the corpus and seeds, independent of the worker
// count.
//
// Deprecated: use NewCampaign(WithCorpus(corpus...), WithArms(arms...),
// ...).Run(ctx) — one object that also carries persistence, resume,
// streaming results and serving.
func RunFleet(ctx context.Context, cfg FleetConfig, corpus []FleetSpec, arms []FleetArm) (*FleetResult, error) {
	return engine.Run(ctx, cfg, corpus, arms)
}

// BuildCorpus materializes a scenario-diverse corpus (FCC-, LTE-,
// WiFi-like and square-wave bandwidth regimes) as fleet session specs.
//
// Deprecated: pass the scenario mix to NewCampaign (WithScenarios,
// WithSessions, WithChunks, WithSeed); Campaign.Corpus returns the
// materialized specs when they are needed directly.
func BuildCorpus(cfg CorpusConfig) ([]FleetSpec, error) { return engine.BuildCorpus(cfg) }

// FleetMatrix returns the ABR × buffer-size what-if matrix for a
// corpus, one arm per pair.
//
// Deprecated: use WithMatrix(abrs, buffers) on NewCampaign;
// Campaign.Arms returns the materialized arms when they are needed
// directly.
func FleetMatrix(cfg CorpusConfig, abrs []string, buffers []float64) ([]FleetArm, error) {
	return engine.BuildMatrix(cfg, abrs, buffers)
}

// FleetScenarios returns the corpus scenario names BuildCorpus accepts.
//
// Deprecated: use Scenarios.
func FleetScenarios() []string { return Scenarios() }

// FleetABRs returns the algorithm names FleetMatrix accepts.
//
// Deprecated: use ABRs.
func FleetABRs() []string { return ABRs() }

// NewFleetArm builds a fleet arm from a WhatIf, defaulting video,
// network and buffer the same way Counterfactual does.
//
// Deprecated: use NewArm.
func NewFleetArm(name string, w WhatIf) (FleetArm, error) { return NewArm(name, w) }

// NewStoreHandler returns the HTTP query API over an open store (list
// sessions and scenarios, fetch per-session what-if results, aggregate
// reports as JSON) with an in-process read cache of cacheEntries
// decoded sessions (0 picks the default, negative disables).
//
// Deprecated: use Campaign.Handler on a campaign built with WithStore
// and WithReadCache.
func NewStoreHandler(s *FleetStore, cacheEntries int) http.Handler {
	return serve.New(s, serve.WithCacheEntries(cacheEntries))
}

// ServeStore serves the query API over an open store on addr until ctx
// is cancelled, then drains in-flight requests for up to five seconds.
//
// Deprecated: use Campaign.Serve on a campaign built with WithStore
// (and WithReadOnlyStore when another process owns the campaign).
func ServeStore(ctx context.Context, addr string, s *FleetStore, cacheEntries int) error {
	return serveHTTP(ctx, addr, NewStoreHandler(s, cacheEntries))
}
