package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// opSample is one open-loop operation: when it was due, when a worker got
// to send it, and when it completed.
type opSample struct {
	k    int
	due  time.Time
	sent time.Time
	done time.Time
	err  error
}

// latency is the operation's time from when it was due, so a stall that
// delays later operations is charged to them too.
func (s opSample) latency() time.Duration { return s.done.Sub(s.due) }

// late is how far behind schedule the generator was when it sent.
func (s opSample) late() time.Duration { return s.sent.Sub(s.due) }

// openLoop runs op on a fixed schedule: operation k is due at
// start + k*interval, whether or not earlier ones have finished. A pool of
// workers sends them, so at most workers operations are in flight; when all
// are busy, due operations wait and their wait counts in their latency.
// Operations due at or after until are not sent. openLoop returns once
// every worker has finished.
func openLoop(start time.Time, interval time.Duration, until time.Time, workers int, op func(k int) error) []opSample {
	var next atomic.Int64
	var mu sync.Mutex
	var all []opSample
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []opSample
			for {
				k := int(next.Add(1) - 1)
				due := start.Add(time.Duration(k) * interval)
				if !due.Before(until) {
					break
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				s := opSample{k: k, due: due, sent: time.Now()}
				s.err = op(k)
				s.done = time.Now()
				mine = append(mine, s)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all
}
