package abduction

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"veritas/internal/abr"
	"veritas/internal/player"
	"veritas/internal/trace"
)

// oracleBaselineTrace is BaselineTrace as it was before the sweep: every
// grid point scans all records for a window holding it, then for the
// off-period around it. It is the differential oracle for the sweep,
// which must produce bit-identical points on every ordered log.
func oracleBaselineTrace(log *player.SessionLog, gridSecs float64) (*trace.Trace, error) {
	if log == nil || len(log.Records) == 0 {
		return nil, errors.New("abduction: empty session log")
	}
	if gridSecs <= 0 {
		return nil, fmt.Errorf("abduction: grid %v <= 0", gridSecs)
	}
	recs := log.Records
	horizon := recs[len(recs)-1].End + gridSecs
	n := int(math.Ceil(horizon/gridSecs)) + 1
	vals := make([]float64, n)

	valueAt := func(t float64) float64 {
		for _, r := range recs {
			if t >= r.Start && t <= r.End {
				return r.ThroughputMbps
			}
		}
		if t < recs[0].Start {
			return recs[0].ThroughputMbps
		}
		last := recs[len(recs)-1]
		if t > last.End {
			return last.ThroughputMbps
		}
		for i := 0; i+1 < len(recs); i++ {
			if t > recs[i].End && t < recs[i+1].Start {
				span := recs[i+1].Start - recs[i].End
				if span <= 0 {
					return recs[i+1].ThroughputMbps
				}
				frac := (t - recs[i].End) / span
				return recs[i].ThroughputMbps + frac*(recs[i+1].ThroughputMbps-recs[i].ThroughputMbps)
			}
		}
		return last.ThroughputMbps
	}

	for i := 0; i < n; i++ {
		vals[i] = valueAt(float64(i) * gridSecs)
	}
	return trace.FromSteps(gridSecs, vals)
}

// randomOrderedLog draws a log whose chunk starts never decrease. Gaps
// between consecutive chunks mix touching windows (End_i == Start_i+1),
// short gaps, long buffer-cap waits, and overlaps (the next chunk starts
// inside the previous window, possibly ending before it); some windows
// have zero length and some start exactly on a grid point.
func randomOrderedLog(rng *rand.Rand, chunks int) *player.SessionLog {
	recs := make([]player.ChunkRecord, chunks)
	start := rng.Float64() * 3
	prevEnd := start
	for i := range recs {
		if i > 0 {
			switch rng.Intn(6) {
			case 0: // touching
				start = prevEnd
			case 1: // short gap
				start = prevEnd + rng.Float64()*0.7
			case 2: // long buffer-cap wait
				start = prevEnd + 2 + rng.Float64()*20
			case 3: // overlapping window, starts still sorted
				start += rng.Float64() * (prevEnd - start)
			case 4: // same start as the previous chunk
			default: // on a grid point
				start = math.Ceil(prevEnd)
			}
		}
		dur := rng.ExpFloat64() * 1.5
		if rng.Intn(10) == 0 {
			dur = 0
		}
		end := start + dur
		recs[i] = player.ChunkRecord{
			Index:          i,
			SizeBytes:      1e6,
			Start:          start,
			End:            end,
			ThroughputMbps: math.Exp(rng.NormFloat64()) * 3,
		}
		prevEnd = end
	}
	return &player.SessionLog{Records: recs, BufferCap: 5, ChunkSeconds: 2}
}

// requireSameTrace fails unless got and want have bit-identical points.
func requireSameTrace(t *testing.T, what string, got, want *trace.Trace) {
	t.Helper()
	gp, wp := got.Points(), want.Points()
	if len(gp) != len(wp) {
		t.Fatalf("%s: %d points, oracle %d", what, len(gp), len(wp))
	}
	for i := range wp {
		if math.Float64bits(gp[i].T) != math.Float64bits(wp[i].T) ||
			math.Float64bits(gp[i].Mbps) != math.Float64bits(wp[i].Mbps) {
			t.Fatalf("%s: point %d = %+v, oracle %+v", what, i, gp[i], wp[i])
		}
	}
}

// TestBaselineTraceMatchesOracle requires the sweep to reproduce the
// quadratic scan bit for bit on random ordered logs, on grids of 0.5, 1
// and 2 s, and on logs the player actually records.
func TestBaselineTraceMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		chunks := 1 + rng.Intn(40)
		if i%10 == 0 {
			chunks = 1
		}
		log := randomOrderedLog(rng, chunks)
		for _, grid := range []float64{0.5, 1, 2} {
			got, err := BaselineTrace(log, grid)
			if err != nil {
				t.Fatalf("log %d grid %v: %v", i, grid, err)
			}
			want, err := oracleBaselineTrace(log, grid)
			if err != nil {
				t.Fatal(err)
			}
			requireSameTrace(t, fmt.Sprintf("log %d (%d chunks) grid %v", i, chunks, grid), got, want)
		}
	}

	for seed := int64(1); seed <= 3; seed++ {
		gt, err := trace.Generate(trace.DefaultFCC(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []abr.Algorithm{abr.NewMPC(), abr.NewBBA()} {
			log := runSession(t, gt, alg)
			for _, grid := range []float64{0.5, 1, 2} {
				got, err := BaselineTrace(log, grid)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracleBaselineTrace(log, grid)
				if err != nil {
					t.Fatal(err)
				}
				requireSameTrace(t, fmt.Sprintf("seed %d %s grid %v", seed, alg.Name(), grid), got, want)
			}
		}
	}
}
