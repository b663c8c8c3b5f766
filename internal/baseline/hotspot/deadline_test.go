package hotspot

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/gendata"
	"repro/internal/localize"
)

// TestDeadlineBoundsSearch checks the per-iteration safe point bounds a
// CDN-sized run: under a 5 ms deadline HotSpot answers within 50 ms with
// a degraded best-so-far set, where the full search runs for hundreds of
// milliseconds.
func TestDeadlineBoundsSearch(t *testing.T) {
	corpus, err := gendata.RAPMD(2022, 4)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range corpus.Cases {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		start := time.Now()
		res, err := l.LocalizeContext(ctx, c.Snapshot, 5)
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("case %d: %v, %d patterns, degraded %v", i, elapsed, len(res.Patterns), res.Degraded)
		if elapsed > 50*time.Millisecond {
			t.Errorf("case %d: run took %v under a 5ms deadline, want <= 50ms", i, elapsed)
		}
		if !res.Degraded || res.DegradedReason != localize.DegradedDeadline {
			t.Errorf("case %d: degraded %v reason %q, want %q", i, res.Degraded, res.DegradedReason, localize.DegradedDeadline)
		}
	}
}

// countedCtx is a context whose Err turns Canceled after n live reads; its
// Done channel closes only at that moment. localize.Poll reads Err at every
// safe point but the first, so a run under newCountedCtx(n) stops at the
// same MCTS iteration on any machine.
type countedCtx struct {
	context.Context // Background: no deadline, no values
	mu              sync.Mutex
	left            int
	err             error
	done            chan struct{}
}

func newCountedCtx(n int) *countedCtx {
	return &countedCtx{Context: context.Background(), left: n, done: make(chan struct{})}
}

func (c *countedCtx) Done() <-chan struct{} { return c.done }

func (c *countedCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		if c.left > 0 {
			c.left--
			return nil
		}
		c.err = context.Canceled
		close(c.done)
	}
	return c.err
}

// TestCountedStopBoundsSearch is TestDeadlineBoundsSearch without the wall
// clock: on the same RAPMD cases, a context that ends after a few safe
// points degrades the run with the canceled reason, and the cut-off lands
// on the same iteration every time.
func TestCountedStopBoundsSearch(t *testing.T) {
	corpus, err := gendata.RAPMD(2022, 4)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range corpus.Cases {
		res, err := l.LocalizeContext(newCountedCtx(5), c.Snapshot, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Degraded || res.DegradedReason != localize.DegradedCanceled {
			t.Errorf("case %d: degraded %v reason %q, want %q", i, res.Degraded, res.DegradedReason, localize.DegradedCanceled)
		}
		again, err := l.LocalizeContext(newCountedCtx(5), c.Snapshot, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, res) {
			t.Errorf("case %d: two cut-off runs diverge\n got %+v\nwant %+v", i, again, res)
		}
	}
}
