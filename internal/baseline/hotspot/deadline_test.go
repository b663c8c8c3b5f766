package hotspot

import (
	"context"
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
