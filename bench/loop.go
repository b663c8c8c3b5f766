package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// phase is what one load phase measured. Latencies are in milliseconds.
type phase struct {
	// latency is timed, in the open loop, from each op's due time when its
	// worker was still busy then, so a stall shows as the wait it imposes on
	// the ops queued behind it; an op whose worker was idle and slept until
	// it fell due is timed from the wake-up, so the generator's own lateness
	// stays out of it. In the closed loop it is the op's own time.
	latency []float64
	// service is timed from when the op was actually sent.
	service []float64
	// late is how far behind schedule the generator woke for ops whose
	// worker was idle when they fell due (open loop only).
	late    []float64
	ops     int
	failed  int
	elapsed time.Duration
}

// add pools q's samples and counts into p. speed converts q's latencies and
// elapsed time into reference time (see speed.go); service and lateness
// stay in raw time.
func (p *phase) add(q *phase, speed float64) {
	for _, l := range q.latency {
		p.latency = append(p.latency, l*speed)
	}
	p.service = append(p.service, q.service...)
	p.late = append(p.late, q.late...)
	p.ops += q.ops
	p.failed += q.failed
	p.elapsed += time.Duration(float64(q.elapsed) * speed)
}

// op runs the next operation of its sequence and returns its failure, if
// any. An op that times itself (an engine op whose set-up is untimed)
// returns its own duration; zero means the loop's clock is used.
type op func() (time.Duration, error)

// openLoop sends ops on a fixed schedule: op i falls due at start + i/rate,
// for dur. conns workers each hold one connection; an op due while all are
// busy waits for the next free worker, and is timed from its due time, so
// nothing is ever dropped and the schedule is always sent in full. A worker
// that is idle sleeps until the op falls due; the timer wakes it up to a
// millisecond late, and a descheduled generator later still, so such an op
// is timed from the wake-up and the lateness is recorded on its own. Ops
// are taken in sequence order, so with one worker they also complete in
// order.
func openLoop(rate float64, dur time.Duration, conns int, fn op) *phase {
	total := int(math.Round(rate * dur.Seconds()))
	interval := time.Duration(float64(time.Second) / rate)
	p := &phase{}
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				origin, late := due, -1.0
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					origin = time.Now()
					late = ms(origin.Sub(due))
				}
				sent := time.Now()
				own, err := fn()
				done := time.Now()
				service := done.Sub(sent)
				if own > 0 {
					service = own
				}
				mu.Lock()
				p.latency = append(p.latency, ms(done.Sub(origin)))
				p.service = append(p.service, ms(service))
				if late >= 0 {
					p.late = append(p.late, late)
				}
				p.ops++
				if err != nil {
					p.failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// closedLoop runs callers that each start their next op as soon as the last
// one returns, until dur has passed.
func closedLoop(dur time.Duration, callers int, fn op) *phase {
	p := &phase{}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				own, err := fn()
				took := time.Since(t0)
				if own > 0 {
					took = own
				}
				mu.Lock()
				p.latency = append(p.latency, ms(took))
				p.service = append(p.service, ms(took))
				p.ops++
				if err != nil {
					p.failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// minBeyond is the fewest samples a reported percentile must have beyond it.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of samples. It
// refuses when fewer than minBeyond samples lie beyond the rank, because
// such a tail is one or two outliers, not a distribution.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	rank := max(int(math.Ceil(p/100*float64(n))), 1)
	if beyond := n - rank; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d", p, n, max(beyond, 0), minBeyond)
	}
	return quantile(samples, p), nil
}

// quantile is the nearest-rank p-th percentile without a sample minimum,
// for validity checks rather than reported tails; 0 for no samples.
func quantile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median of a few values, for set-up times; no sample minimum.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
