package abr

import (
	"math"
	"math/rand"
	"testing"

	"veritas/internal/video"
)

// oracleMPCChoose is MPC.Choose as it was before the planning tables and
// the iterative search: a recursive closure that recomputes every size,
// rate and switching term at every node. It is the differential oracle
// for the table-driven Choose, which must pick the same quality.
func oracleMPCChoose(m *MPC, ctx Context) int {
	v := ctx.Video
	pred := m.predict(ctx.PastThroughputMbps)
	if pred <= 0 {
		return 0
	}
	horizon := m.horizon()
	remaining := v.NumChunks() - ctx.ChunkIndex
	if horizon > remaining {
		horizon = remaining
	}
	if horizon <= 0 {
		return 0
	}

	nq := v.NumQualities()
	bestQ, bestScore := 0, math.Inf(-1)
	seq := make([]int, horizon)

	var search func(depth int, buffer float64, lastQ int, score float64)
	search = func(depth int, buffer float64, lastQ int, score float64) {
		if depth == horizon {
			if score > bestScore {
				bestScore = score
				bestQ = seq[0]
			}
			return
		}
		maxRate := v.Quality(nq - 1).Mbps
		if score+float64(horizon-depth)*maxRate <= bestScore {
			return
		}
		chunk := ctx.ChunkIndex + depth
		for q := 0; q < nq; q++ {
			size := v.Size(chunk, q)
			dl := size * 8 / 1e6 / pred
			rebuf := math.Max(0, dl-buffer)
			nb := math.Max(0, buffer-dl) + v.ChunkSeconds()
			if nb > ctx.BufferCap {
				nb = ctx.BufferCap
			}
			rate := v.Quality(q).Mbps
			step := rate - m.rebufPenalty()*rebuf
			if lastQ >= 0 {
				step -= m.SmoothPenalty * math.Abs(rate-v.Quality(lastQ).Mbps)
			}
			seq[depth] = q
			search(depth+1, nb, q, score+step)
		}
	}
	search(0, ctx.BufferSeconds, ctx.LastQuality, 0)
	return clampQuality(bestQ, v)
}

// TestMPCChooseMatchesOracle drives the table-driven Choose and the
// recursive oracle over random contexts on both ladders, every buffer
// cap from 5 to 30 s, every LastQuality, horizons 1–6 (including
// chunk indices near the end, where the horizon truncates), robust mode
// on and off, and assorted penalties. One long-lived instance per
// configuration is reused across calls, so stale table contents from a
// different ladder or horizon would show. The oracle starts each call
// from the same robust-error state, which must also evolve identically.
func TestMPCChooseMatchesOracle(t *testing.T) {
	const contexts = 20000
	cfg := video.DefaultConfig(7)
	cfg.NumChunks = 40
	def := video.MustSynthesize(cfg)
	higher, err := def.WithLadder(video.HigherLadder())
	if err != nil {
		t.Fatal(err)
	}
	videos := []*video.Video{def, higher}

	rng := rand.New(rand.NewSource(42))
	// A small pool of reused instances, one per (horizon, robust) pair.
	shared := map[[2]int]*MPC{}
	rebufPenalties := []float64{0, 8, 3.5, 20}
	smoothPenalties := []float64{0, 1, 0.4, 2.5}
	for i := 0; i < contexts; i++ {
		v := videos[rng.Intn(len(videos))]
		nq := v.NumQualities()
		horizon := 1 + rng.Intn(6)
		robust := rng.Intn(2) == 0
		key := [2]int{horizon, 0}
		if robust {
			key[1] = 1
		}
		m := shared[key]
		if m == nil {
			m = &MPC{Horizon: horizon, Robust: robust}
			shared[key] = m
		}
		m.Window = rng.Intn(7) // 0 takes the default
		m.RebufPenalty = rebufPenalties[rng.Intn(len(rebufPenalties))]
		m.SmoothPenalty = smoothPenalties[rng.Intn(len(smoothPenalties))]
		m.maxErr = rng.Float64() * 0.8

		chunk := rng.Intn(v.NumChunks())
		if rng.Intn(4) == 0 {
			// Near the end: the horizon truncates to the chunks left.
			chunk = v.NumChunks() - 1 - rng.Intn(6)
		}
		bufCap := 5 + rng.Float64()*25
		past := make([]float64, rng.Intn(9))
		for j := range past {
			past[j] = math.Exp(rng.NormFloat64()*1.2) * 2 // ~0.2–20 Mbps
			if rng.Intn(20) == 0 {
				past[j] = 0 // a skipped sample
			}
		}
		ctx := Context{
			ChunkIndex:         chunk,
			BufferSeconds:      rng.Float64() * bufCap,
			BufferCap:          bufCap,
			LastQuality:        rng.Intn(nq+1) - 1,
			PastThroughputMbps: past,
			Video:              v,
		}
		oracle := *m
		want := oracleMPCChoose(&oracle, ctx)
		got := m.Choose(ctx)
		if got != want {
			t.Fatalf("context %d (horizon %d, robust %v, nq %d, chunk %d, cap %.2f, last %d): Choose = %d, oracle = %d",
				i, horizon, robust, nq, chunk, bufCap, ctx.LastQuality, got, want)
		}
		if m.maxErr != oracle.maxErr {
			t.Fatalf("context %d: robust error state %v, oracle %v", i, m.maxErr, oracle.maxErr)
		}
	}
}
