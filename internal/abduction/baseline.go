package abduction

import (
	"errors"
	"fmt"
	"math"

	"veritas/internal/player"
	"veritas/internal/trace"
)

// checkChunkOrder rejects a log whose chunks run backwards: a download
// that ends before it starts, or a chunk that starts before the previous
// one. Times are finite seconds from session start, so none is negative.
// Zero-length downloads (End == Start) are legal. Every log the player
// records passes; the check makes the Baseline sweep exact and keeps
// abduction from inferring over reordered evidence.
func checkChunkOrder(recs []player.ChunkRecord) error {
	for i := range recs {
		r := &recs[i]
		switch {
		case math.IsNaN(r.Start) || math.IsInf(r.Start, 0) || math.IsNaN(r.End) || math.IsInf(r.End, 0):
			return fmt.Errorf("abduction: chunk %d: non-finite download window [%v, %v]", i, r.Start, r.End)
		case r.Start < 0:
			return fmt.Errorf("abduction: chunk %d: starts at %v, before the session", i, r.Start)
		case r.End < r.Start:
			return fmt.Errorf("abduction: chunk %d: download ends at %v before it starts at %v", i, r.End, r.Start)
		case i > 0 && r.Start < recs[i-1].Start:
			return fmt.Errorf("abduction: chunk %d: starts at %v, before chunk %d at %v", i, r.Start, i-1, recs[i-1].Start)
		}
	}
	return nil
}

// BaselineTrace builds the paper's Baseline GTBW estimate from a session
// log: the observed throughput of each chunk is assumed to hold over the
// chunk's whole download window, and bandwidth during off-periods (no
// active download) is linearly interpolated between the surrounding
// chunks' throughputs. This is the adjustment-free scheme "commonly used
// in most video streaming evaluations today" that Veritas outperforms.
//
// The result is sampled onto a uniform grid of gridSecs (1 s captures
// the interpolation well below typical off-period lengths). A grid point
// inside several (overlapping) windows takes the earliest chunk's
// throughput. The log's chunks must be in order (see checkChunkOrder).
func BaselineTrace(log *player.SessionLog, gridSecs float64) (*trace.Trace, error) {
	if log == nil || len(log.Records) == 0 {
		return nil, errors.New("abduction: empty session log")
	}
	if gridSecs <= 0 {
		return nil, fmt.Errorf("abduction: grid %v <= 0", gridSecs)
	}
	recs := log.Records
	if err := checkChunkOrder(recs); err != nil {
		return nil, err
	}
	first, last := &recs[0], &recs[len(recs)-1]
	horizon := last.End + gridSecs
	n := int(math.Ceil(horizon/gridSecs)) + 1
	vals := make([]float64, n)

	// One sweep over the grid. Starts are non-decreasing, so as t grows
	// both pointers only advance: lo is the first chunk whose window has
	// not closed by t (End >= t), hi the number of chunks started by t
	// (Start <= t). t lies in chunk lo's window exactly when lo < hi, and
	// no earlier chunk's window holds it.
	lo, hi := 0, 0
	for i := range vals {
		t := float64(i) * gridSecs
		for lo < len(recs) && recs[lo].End < t {
			lo++
		}
		for hi < len(recs) && recs[hi].Start <= t {
			hi++
		}
		switch {
		case lo < hi:
			// Inside a download window: that chunk's observed throughput.
			vals[i] = recs[lo].ThroughputMbps
		case hi == 0:
			// Before the first chunk / after the last: hold the edge value.
			vals[i] = first.ThroughputMbps
		case hi == len(recs):
			vals[i] = last.ThroughputMbps
		default:
			// Off-period: chunk hi-1 has ended and chunk hi not yet
			// started. Linearly interpolate between their throughputs
			// across the gap (which is positive: End < t < Start).
			prev, next := &recs[hi-1], &recs[hi]
			frac := (t - prev.End) / (next.Start - prev.End)
			vals[i] = prev.ThroughputMbps + frac*(next.ThroughputMbps-prev.ThroughputMbps)
		}
	}
	return trace.FromSteps(gridSecs, vals)
}
