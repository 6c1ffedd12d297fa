package engine

import "veritas/internal/abduction"

// The row-scan differential oracle. Partials is the engine's only
// production reducer; these functions recompute every report cell
// straight from full SessionRows — no digests, no incremental state —
// so tests can pin Partials against an independent computation. Every
// function expects rows in corpus (Index, ID) order, the order
// Partials reports in.

func armNamesOf(rows []SessionRow) []string {
	for _, s := range rows {
		if len(s.Arms) > 0 {
			names := make([]string, len(s.Arms))
			for i, oc := range s.Arms {
				names[i] = oc.Name
			}
			return names
		}
	}
	return nil
}

func armValue(oc ArmOutcome, est ArmEstimator, f abduction.MetricFn) (float64, bool) {
	switch est {
	case EstTruth:
		if !oc.HasTruth {
			return 0, false
		}
		return f(oc.Truth), true
	case EstBaseline:
		return f(oc.Baseline), true
	case EstVeritasLow:
		lo, _ := abduction.VeritasRange(oc.Samples, f)
		return lo, true
	case EstVeritasHigh:
		_, hi := abduction.VeritasRange(oc.Samples, f)
		return hi, true
	case EstVeritasMid:
		lo, hi := abduction.VeritasRange(oc.Samples, f)
		return (lo + hi) / 2, true
	}
	return 0, false
}

// seriesOf returns the per-session values of metric f under the
// estimator for one arm. Sessions missing the arm (or the ground truth,
// for EstTruth) are skipped.
func seriesOf(rows []SessionRow, arm string, est ArmEstimator, f abduction.MetricFn) []float64 {
	var out []float64
	for _, s := range rows {
		for _, oc := range s.Arms {
			if oc.Name != arm {
				continue
			}
			if v, ok := armValue(oc, est, f); ok {
				out = append(out, v)
			}
		}
	}
	return out
}

func predictionsOf(rows []SessionRow) []float64 {
	var out []float64
	for _, s := range rows {
		out = append(out, s.Predictions...)
	}
	return out
}

// coverageOf returns the fraction of sessions whose oracle outcome lies
// inside [VeritasLow − slack, VeritasHigh + slack] for metric f.
func coverageOf(rows []SessionRow, arm string, f abduction.MetricFn, slack float64) float64 {
	var n, covered int
	for _, s := range rows {
		for _, oc := range s.Arms {
			if oc.Name != arm || !oc.HasTruth {
				continue
			}
			lo, hi := abduction.VeritasRange(oc.Samples, f)
			t := f(oc.Truth)
			n++
			if t >= lo-slack && t <= hi+slack {
				covered++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(covered) / float64(n)
}

// oracleReport builds the fleet report by scanning rows.
func oracleReport(rows []SessionRow) *Report {
	rep := &Report{Sessions: len(rows)}
	for _, arm := range armNamesOf(rows) {
		ar := ArmAggregate{Arm: arm}
		for _, m := range reportMetrics {
			ma := MetricAggregate{Metric: m.label, Estimators: map[ArmEstimator]Summary{}}
			for _, est := range reportEstimators {
				if s := Summarize(seriesOf(rows, arm, est, m.fn)); s.N > 0 {
					ma.Estimators[est] = s
				}
			}
			if _, ok := ma.Estimators[EstTruth]; ok {
				c := coverageOf(rows, arm, m.fn, m.slack)
				ma.Coverage = &c
				ma.CoverageSlack = m.slack
			}
			ar.Metrics = append(ar.Metrics, ma)
		}
		rep.Arms = append(rep.Arms, ar)
	}
	if preds := predictionsOf(rows); len(preds) > 0 {
		s := Summarize(preds)
		rep.Predictions = &s
	}
	return rep
}
