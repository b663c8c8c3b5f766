package main

import (
	"testing"
	"time"
)

// A server that takes three intervals per request falls behind an open
// loop: every op is still sent, and the queueing delay shows in the
// latency timed from each op's due time. A fast server keeps up, and its
// ops are timed from when the idle generator woke to send them.
func TestOpenLoopTimesFromDueTimeAndNeverDrops(t *testing.T) {
	const (
		rate    = 100.0 // one op due every 10 ms
		service = 30 * time.Millisecond
	)
	p := openLoop(rate, 300*time.Millisecond, 1, func() (time.Duration, error) {
		time.Sleep(service)
		return 0, nil
	})
	if p.ops != 30 {
		t.Fatalf("sent %d ops, want all 30 the schedule holds", p.ops)
	}
	for i, s := range p.service {
		if s < ms(service) {
			t.Fatalf("op %d served in %.1f ms, faster than the handler", i, s)
		}
	}
	// Op i is due at 10i ms and cannot finish before 30(i+1) ms, so it waits
	// at least 20i + 30 ms from its due time.
	last := p.latency[len(p.latency)-1]
	if want := 20*29.0 + 30; last < want {
		t.Fatalf("last op latency %.1f ms, want >= %.0f ms of queueing", last, want)
	}
	// The worker was never idle ahead of a due time, so the generator's own
	// lateness was never observable.
	if len(p.late) != 0 {
		t.Fatalf("generator lateness sampled on %d ops, want none", len(p.late))
	}
	fast := openLoop(rate, 200*time.Millisecond, 1, func() (time.Duration, error) { return 0, nil })
	// With an idle worker, every op due after the start is slept for, so its
	// lateness is sampled (unless the worker itself was descheduled past it).
	if fast.ops != 20 || len(fast.late) < 10 {
		t.Fatalf("fast handler: %d ops with %d lateness samples, want 20 ops, most sampled", fast.ops, len(fast.late))
	}
	// Those ops are timed from the wake-up: the timer's oversleep, up to a
	// millisecond, is the generator's and stays out of their latency.
	if p50 := quantile(fast.latency, 50); p50 > 0.5 {
		t.Fatalf("fast handler: median latency %.3f ms, want the no-op's own time", p50)
	}
}

func TestClosedLoopUsesOpOwnTime(t *testing.T) {
	p := closedLoop(50*time.Millisecond, 2, func() (time.Duration, error) {
		time.Sleep(time.Millisecond)
		return 7 * time.Millisecond, nil
	})
	if p.ops == 0 {
		t.Fatal("no ops ran")
	}
	for _, l := range p.latency {
		if l != 7 {
			t.Fatalf("latency %.3f ms, want the op's own 7 ms", l)
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 100..1, unsorted
	}
	if _, err := percentile(samples, 95); err == nil {
		t.Fatal("p95 of 100 samples has 5 beyond it and must be refused")
	}
	p90, err := percentile(samples, 90)
	if err != nil || p90 != 90 {
		t.Fatalf("p90 = %v, %v; want 90", p90, err)
	}
	if _, err := percentile(samples[:19], 50); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if p50, err := percentile(samples[:20], 50); err != nil || p50 != 90 {
		t.Fatalf("p50 of 100..81 = %v, %v; want the 10th smallest, 90", p50, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("no samples must be refused")
	}
}
