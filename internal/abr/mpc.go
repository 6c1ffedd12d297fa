package abr

import "math"

// MPC is the model-predictive-control algorithm of Yin et al. (the
// paper's default deployed ABR). At each step it predicts throughput
// with a robust (error-discounted) harmonic mean, then exhaustively
// searches quality sequences over a short horizon, simulating buffer
// evolution, and picks the first quality of the sequence maximizing a
// linear QoE: Σ bitrate − RebufPenalty·rebuffer − SmoothPenalty·|Δbitrate|.
type MPC struct {
	// Horizon is the lookahead depth in chunks (default 4).
	Horizon int
	// Window is the harmonic-mean window (default 5).
	Window int
	// RebufPenalty is QoE lost per second of rebuffering, in Mbps-equivalent
	// units (default 8).
	RebufPenalty float64
	// SmoothPenalty scales the |Δbitrate| switching term (default 1).
	SmoothPenalty float64
	// Robust enables the RobustMPC error discount (default true via NewMPC).
	Robust bool

	maxErr float64 // running max relative prediction error (robust mode)

	// Per-call planning tables and DFS state, reused across calls.
	dl, rates, switchCost, buffers, scores []float64
	lasts, next                            []int
}

// NewMPC returns RobustMPC with the defaults used across the
// reproduction's experiments.
func NewMPC() *MPC {
	return &MPC{Horizon: 4, Window: 5, RebufPenalty: 8, SmoothPenalty: 1, Robust: true}
}

// Name implements Algorithm.
func (m *MPC) Name() string { return "MPC" }

func (m *MPC) horizon() int {
	if m.Horizon <= 0 {
		return 4
	}
	return m.Horizon
}

func (m *MPC) window() int {
	if m.Window <= 0 {
		return 5
	}
	return m.Window
}

func (m *MPC) rebufPenalty() float64 {
	if m.RebufPenalty == 0 {
		return 8
	}
	return m.RebufPenalty
}

// predict returns the robust throughput estimate in Mbps.
func (m *MPC) predict(past []float64) float64 {
	hm := HarmonicMean(past, m.window())
	if hm <= 0 {
		return 0
	}
	if !m.Robust {
		return hm
	}
	// RobustMPC: track the max relative error of the harmonic-mean
	// predictor on past observations and discount by it.
	if len(past) >= 2 {
		prev := HarmonicMean(past[:len(past)-1], m.window())
		actual := past[len(past)-1]
		if prev > 0 && actual > 0 {
			err := math.Abs(prev-actual) / actual
			if err > m.maxErr {
				m.maxErr = err
			}
			// Decay so one outlier does not depress the session forever.
			m.maxErr *= 0.99
		}
	}
	return hm / (1 + m.maxErr)
}

// Choose implements Algorithm.
//
// It enumerates quality sequences depth-first, in ascending quality order
// at every depth, and skips a subtree once even a perfect completion
// cannot beat the best sequence found so far. The arithmetic that does
// not depend on the path is computed once per call into tables held in
// buffers the instance reuses, so a warmed-up instance chooses without
// allocating.
func (m *MPC) Choose(ctx Context) int {
	v := ctx.Video
	pred := m.predict(ctx.PastThroughputMbps)
	if pred <= 0 {
		// No observations yet: start from the bottom like the deployed
		// systems the paper logs.
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
	maxRate := v.Quality(nq - 1).Mbps
	rebufPenalty := m.rebufPenalty()
	chunkSecs := v.ChunkSeconds()

	// Path-independent tables: predicted download seconds per (depth,
	// quality), the ladder rates, and the switching penalty per
	// (previous, next) quality pair.
	dl := grow(&m.dl, horizon*nq)
	for d := 0; d < horizon; d++ {
		for q := 0; q < nq; q++ {
			dl[d*nq+q] = v.Size(ctx.ChunkIndex+d, q) * 8 / 1e6 / pred
		}
	}
	rates := grow(&m.rates, nq)
	for q := range rates {
		rates[q] = v.Quality(q).Mbps
	}
	switchCost := grow(&m.switchCost, nq*nq)
	for a := 0; a < nq; a++ {
		for b := 0; b < nq; b++ {
			switchCost[a*nq+b] = m.SmoothPenalty * math.Abs(rates[b]-rates[a])
		}
	}

	// Iterative DFS. Node d on the current path holds its buffer level,
	// the quality chosen to reach it and its accumulated score; next[d]
	// is the next quality to try below it. The children of a node at the
	// last depth are leaves, scored in one flat loop.
	buffers, scores := grow(&m.buffers, horizon), grow(&m.scores, horizon)
	lasts, next := grow(&m.lasts, horizon), grow(&m.next, horizon)

	bestQ, bestScore := 0, math.Inf(-1)
	buffers[0], lasts[0], scores[0], next[0] = ctx.BufferSeconds, ctx.LastQuality, 0, 0
	first := 0 // quality chosen at depth 0 on the current path
	for d := 0; d >= 0; {
		buffer, last, base := buffers[d], lasts[d], scores[d]
		row := dl[d*nq : (d+1)*nq]
		if d == horizon-1 {
			for q, t := range row {
				step := qoeStep(rates[q], t, buffer, rebufPenalty)
				if last >= 0 {
					step -= switchCost[last*nq+q]
				}
				if score := base + step; score > bestScore {
					bestScore = score
					bestQ = first
					if d == 0 {
						bestQ = q
					}
				}
			}
			d--
			continue
		}
		q := next[d]
		if q == nq {
			d--
			continue
		}
		next[d] = q + 1
		if d == 0 {
			first = q
		}
		t := row[q]
		step := qoeStep(rates[q], t, buffer, rebufPenalty)
		if last >= 0 {
			step -= switchCost[last*nq+q]
		}
		score := base + step
		// Prune: even a perfect completion cannot add more than maxRate
		// per remaining step.
		if score+float64(horizon-d-1)*maxRate <= bestScore {
			continue
		}
		nb := buffer - t
		if nb < 0 {
			nb = 0
		}
		nb += chunkSecs
		if nb > ctx.BufferCap {
			nb = ctx.BufferCap
		}
		d++
		buffers[d], lasts[d], scores[d], next[d] = nb, q, score, 0
	}
	return clampQuality(bestQ, v)
}

// qoeStep is one chunk's QoE term before the switching penalty: its
// rate, less the penalty for the rebuffering a download of t seconds
// causes when buffer seconds are buffered.
func qoeStep(rate, t, buffer, rebufPenalty float64) float64 {
	rebuf := t - buffer
	if rebuf < 0 {
		rebuf = 0
	}
	return rate - rebufPenalty*rebuf
}

// grow returns (*buf)[:n], reallocating *buf only when it is too short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}
