package main

// Machine-speed calibration. On a shared machine the speed available to
// one process drifts as other tenants come and go: the same seed, run four
// times in a row, spread 10%, and one set of ten what-if runs swung 35%.
// So the benchmark times a fixed reference kernel, which runs no program
// code, right before each what-if campaign, around each window of
// interventional queries, and before each set-up. Those numbers are scaled
// by how fast the kernel ran just then, relative to refNominal: drift
// common to the kernel and the workload cancels, while a change to the
// program does not. The raw numbers are printed beside them. The
// live-query read latencies are not scaled; there the kernel tracked the
// machine no better than the reads themselves.

import (
	"runtime"
	"sync"
	"time"
)

// refNominal is the reference kernel's time on a quiet 2-core Xeon with
// both cores running it. Only ratios to it matter: on other hardware the
// scaled numbers move by a constant factor.
const refNominal = 8 * time.Millisecond

const refIters = 1 << 21

// refBuf is the reference kernel's working set per goroutine (256 KiB),
// cache-resident like the inference and replay loops.
const refBuf = 1 << 15

// refKernel is fixed work: pseudo-random float multiply-adds over buf.
func refKernel(buf []float64) float64 {
	x := 1.0
	h := uint64(0x9e3779b97f4a7c15)
	mask := uint64(len(buf) - 1)
	for i := 0; i < refIters; i++ {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		j := h & mask
		x = x*0.999999 + buf[j]
		buf[j] = x * 1e-3
	}
	return x
}

// calibrator measures the reference kernel on every worker at once.
type calibrator struct {
	workers int
	bufs    [][]float64
	sink    float64
}

func newCalibrator(workers int) *calibrator {
	c := &calibrator{workers: workers}
	for i := 0; i < workers; i++ {
		c.bufs = append(c.bufs, make([]float64, refBuf))
	}
	return c
}

// slowdown runs the kernel three times on all workers and returns the
// fastest wall time over refNominal: above 1 the machine is slower than
// nominal. It first finishes any garbage collection the workload left
// running, so the program's own allocation pattern cannot slow the kernel;
// the fastest of three ignores a one-off pause.
func (c *calibrator) slowdown() float64 {
	runtime.GC()
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 3; rep++ {
		var wg sync.WaitGroup
		out := make([]float64, c.workers)
		t0 := time.Now()
		for w := 0; w < c.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				out[w] = refKernel(c.bufs[w])
			}(w)
		}
		wg.Wait()
		if d := time.Since(t0); d < best {
			best = d
		}
		for _, v := range out {
			c.sink += v
		}
	}
	return float64(best) / float64(refNominal)
}
