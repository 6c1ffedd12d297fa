package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// tailLadder lists the percentiles a timing may report as its tail, highest
// first. A percentile is eligible only when at least minBeyond samples lie
// beyond it, so a tail is never read off a handful of outliers.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder that leaves at
// least minBeyond of n samples above it, and false when n is too small for
// any of them.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailLadder {
		// The tolerance absorbs float error in n*(1-p/100), e.g. 1000*0.01.
		if float64(n)*(1-p/100)+1e-9 >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of sorted: the value
// at rank ceil(p/100*n). At p99 of 1000 samples that leaves exactly 10
// samples above it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// dist is a sample of one timing or quantity.
type dist struct {
	vals   []float64
	sorted bool
}

func (d *dist) add(v float64) {
	d.vals = append(d.vals, v)
	d.sorted = false
}

func (d *dist) addDur(t time.Duration, unit time.Duration) {
	d.add(float64(t) / float64(unit))
}

func (d *dist) merge(o *dist) {
	d.vals = append(d.vals, o.vals...)
	d.sorted = false
}

func (d *dist) n() int { return len(d.vals) }

func (d *dist) sort() {
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
}

func (d *dist) pct(p float64) float64 {
	d.sort()
	return percentile(d.vals, p)
}

func (d *dist) median() float64 { return d.pct(50) }

func (d *dist) sum() float64 {
	s := 0.0
	for _, v := range d.vals {
		s += v
	}
	return s
}

func (d *dist) mean() float64 {
	if len(d.vals) == 0 {
		return 0
	}
	return d.sum() / float64(len(d.vals))
}

// tail returns the distribution's reportable tail under the ten-beyond
// rule: the percentile chosen and its value.
func (d *dist) tail() (p, v float64, ok bool) {
	p, ok = tailPercentile(d.n())
	if !ok {
		return 0, 0, false
	}
	return p, d.pct(p), true
}

// hist is a log-linear histogram of durations with 8 sub-buckets per power
// of two (at most 12.5% relative error), for per-call timings too numerous
// to keep one by one. The zero value is ready to use; it is not safe for
// concurrent use.
type hist struct {
	counts [64 * 8]uint64
	n      uint64
	sum    time.Duration
}

func histBucket(d time.Duration) int {
	if d < 8 {
		if d < 0 {
			return 0
		}
		return int(d)
	}
	exp := 63 - bits.LeadingZeros64(uint64(d)) // floor(log2 d) >= 3
	sub := int(uint64(d)>>(uint(exp)-3)) & 7
	return (exp-2)*8 + sub
}

// histLower is the smallest duration that falls in bucket b.
func histLower(b int) time.Duration {
	if b < 8 {
		return time.Duration(b)
	}
	exp := b/8 + 2
	sub := b % 8
	return time.Duration((8 + uint64(sub)) << uint(exp-3))
}

func (h *hist) observe(d time.Duration) {
	h.counts[histBucket(d)]++
	h.n++
	h.sum += d
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// pct returns the lower edge of the bucket holding the nearest-rank p-th
// percentile.
func (h *hist) pct(p float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return histLower(b)
		}
	}
	return histLower(len(h.counts) - 1)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// windowStats summarizes one window of a run: its completion rate and its
// latencies.
type windowStats struct {
	rate float64
	lat  dist
}

// windowMedians returns the median over windows of the completion rate
// and of each window's p50 and p90 latency. A burst of interference then
// moves one or two windows, not the result.
func windowMedians(windows []windowStats) (rate, p50, p90 float64) {
	var r, a, b dist
	for _, w := range windows {
		if w.lat.n() == 0 {
			continue
		}
		r.add(w.rate)
		a.add(w.lat.median())
		b.add(w.lat.pct(90))
	}
	return r.median(), a.median(), b.median()
}
