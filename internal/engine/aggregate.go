package engine

import (
	"veritas/internal/player"
	"veritas/internal/stats"
)

// ArmEstimator selects which of the paper's estimators a fleet
// aggregate is computed over.
type ArmEstimator string

const (
	// EstTruth is the oracle replay over the ground-truth trace.
	EstTruth ArmEstimator = "truth"
	// EstBaseline is the replay over the Baseline throughput estimate.
	EstBaseline ArmEstimator = "baseline"
	// EstVeritasLow / EstVeritasHigh are the paper's reported range
	// (second-lowest and second-highest posterior sample outcome).
	EstVeritasLow  ArmEstimator = "veritas-low"
	EstVeritasHigh ArmEstimator = "veritas-high"
	// EstVeritasMid is the midpoint of the Veritas range, the point
	// estimate used for error comparisons.
	EstVeritasMid ArmEstimator = "veritas-mid"
)

// Summary is a fleet-level description of one metric series.
type Summary struct {
	N                                 int
	Mean                              float64
	Min, P10, P25, P50, P75, P90, Max float64
}

// Summarize computes a Summary over vals; the zero Summary for empty
// input.
func Summarize(vals []float64) Summary {
	if len(vals) == 0 {
		return Summary{}
	}
	return Summary{
		N:    len(vals),
		Mean: stats.Mean(vals),
		Min:  stats.Min(vals),
		P10:  stats.Percentile(vals, 10),
		P25:  stats.Percentile(vals, 25),
		P50:  stats.Percentile(vals, 50),
		P75:  stats.Percentile(vals, 75),
		P90:  stats.Percentile(vals, 90),
		Max:  stats.Max(vals),
	}
}

// SessionRow is the compact, serializable reduction of a SessionResult:
// everything the result store keeps per session and Partials reduces
// to a digest, and nothing else. In particular it drops the session log
// and any retained abduction.
type SessionRow struct {
	Index       int
	ID          string
	Scenario    string
	Simulated   bool // true when Setting A was simulated (SettingA is meaningful)
	SettingA    player.Metrics
	Arms        []ArmOutcome
	Predictions []float64
	CacheHits   uint64
	CacheMisses uint64
}

// Row reduces the result to its aggregation row.
func (r SessionResult) Row() SessionRow {
	return SessionRow{
		Index:       r.Index,
		ID:          r.ID,
		Scenario:    r.Scenario,
		Simulated:   r.Log != nil && r.SettingA != (player.Metrics{}),
		SettingA:    r.SettingA,
		Arms:        r.Arms,
		Predictions: r.Predictions,
		CacheHits:   r.Cache.Hits,
		CacheMisses: r.Cache.Misses,
	}
}

// Sink consumes completed session results as workers finish them — the
// engine's streaming persistence hook (e.g. a store writer). Put is
// called from worker goroutines in completion order and must be safe
// for concurrent use; the first Put error aborts the run.
type Sink interface {
	Put(SessionResult) error
}
