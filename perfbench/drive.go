package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the client-connection count of the serve workload's open loop.
const clients = 2

// drive is the serial closed loop: it runs op(k) for k = 0, 1, 2, ... until
// d has passed and k has reached a non-zero multiple of pass, so a run is
// always whole passes over the workload's inputs and its mix does not
// depend on where the clock ran out. op returns the kind of
// input it ran (ops of one kind do the same work) and its output check (""
// when it passed); drive times each call in wall and process CPU time. One
// op at a time is what makes the process CPU time around a call that
// call's own.
func drive(d time.Duration, pass int, op func(k int) (kind, failed string)) *outcome {
	o := &outcome{wall: true, extra: map[string]float64{}}
	start := time.Now()
	deadline := start.Add(d)
	for k := 0; k%pass != 0 || k == 0 || time.Now().Before(deadline); k++ {
		t0, c0 := time.Now(), cpuNow()
		kind, failed := op(k)
		c1 := cpuNow()
		o.samples = append(o.samples, sample{kind: kind, ms: ms(time.Since(t0)), cpuMS: ms(c1 - c0), failed: failed})
		if failed != "" {
			o.fail(failed)
		}
		host.maybe()
	}
	o.elapsed = time.Since(start)
	return o
}

// openLoop is the open loop: request i is due at start + i*interval,
// whatever happened to earlier requests, and senders goroutines (one per
// client connection) send them in order. Each sample's latency is measured
// from the request's due time, so a stalled sender charges its delay to
// every request queued behind it; late is how far past its due time the
// request was actually sent (the generator's own lateness).
func openLoop(n int, interval time.Duration, senders int, do func(i int) sample) (samples []sample, elapsed time.Duration) {
	samples = make([]sample, n)
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				waitUntil(due)
				sent := time.Now()
				s := do(i)
				s.ms = float64(time.Since(due)) / 1e6
				s.late = float64(sent.Sub(due)) / 1e6
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// spinWindow is how long before a due time waitUntil stops sleeping and
// spins: the runtime's timers wake up to a millisecond late, which would
// otherwise dominate sub-millisecond request latencies.
const spinWindow = 1500 * time.Microsecond

// waitUntil returns at t, sleeping while t is far and yielding the
// processor while it is near.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
