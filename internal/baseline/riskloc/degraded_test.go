package riskloc

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/kpi"
	"repro/internal/localize"
)

// These tests pin the PR 4 degraded-result contract for RiskLoc, mirroring
// rapminer/degraded_test.go: a canceled or expired context yields a
// non-nil, well-formed (possibly empty) result — never an error, never a
// leaked goroutine.

func degradedFixture(t testing.TB) *kpi.Snapshot {
	t.Helper()
	s := testSchema()
	raps := []kpi.Combination{
		kpi.MustParseCombination(s, "(a1, *, *)"),
		kpi.MustParseCombination(s, "(*, b3, c2)"),
	}
	return injectedSnapshot(t, s, raps, []float64{0.6, 0.5})
}

func TestRiskLocPreCanceledContextReturnsDeterministicPartial(t *testing.T) {
	snap := degradedFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	l := mustNew(t)
	want, err := l.LocalizeContext(ctx, snap, 10)
	if err != nil {
		t.Fatalf("canceled run errored: %v", err)
	}
	if !want.Degraded || want.DegradedReason != localize.DegradedCanceled {
		t.Fatalf("Degraded=%v reason=%q, want true/%q",
			want.Degraded, want.DegradedReason, localize.DegradedCanceled)
	}
	// The first cuboid is always scanned, so the degraded answer still
	// carries its best-so-far candidates on this anomalous fixture.
	if len(want.Patterns) == 0 {
		t.Fatal("degraded run returned no best-so-far candidates")
	}
	for i := 0; i < 20; i++ {
		got, err := l.LocalizeContext(ctx, snap, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: degraded result diverged", i)
		}
	}
}

func TestRiskLocExpiredDeadlineReportsDeadlineExceeded(t *testing.T) {
	snap := degradedFixture(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	res, err := mustNew(t).LocalizeContext(ctx, snap, 10)
	if err != nil {
		t.Fatalf("expired run errored: %v", err)
	}
	if !res.Degraded || res.DegradedReason != localize.DegradedDeadline {
		t.Fatalf("Degraded=%v reason=%q, want true/%q",
			res.Degraded, res.DegradedReason, localize.DegradedDeadline)
	}
}

func TestRiskLocMidRunCancellationStopsAtCuboidBoundary(t *testing.T) {
	// A context that expires partway through the run must stop at the
	// next cuboid boundary with a well-formed partial. The deadline is
	// forced to land mid-run by racing a short timer against a run over
	// a larger snapshot; whether it fires before, during, or after, the
	// result must be valid and the error nil.
	s := kpi.MustSchema(
		kpi.Attribute{Name: "A", Values: manyValues("a", 20)},
		kpi.Attribute{Name: "B", Values: manyValues("b", 15)},
		kpi.Attribute{Name: "C", Values: manyValues("c", 12)},
	)
	rap := kpi.MustParseCombination(s, "(aad, *, *)")
	snap := injectedSnapshot(t, s, []kpi.Combination{rap}, []float64{0.6})

	l := mustNew(t)
	for _, budget := range []time.Duration{time.Microsecond, 50 * time.Microsecond, time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		res, err := l.LocalizeContext(ctx, snap, 10)
		cancel()
		if err != nil {
			t.Fatalf("budget %v: %v", budget, err)
		}
		if res.Degraded {
			if res.DegradedReason != localize.DegradedDeadline && res.DegradedReason != localize.DegradedCanceled {
				t.Fatalf("budget %v: unexpected reason %q", budget, res.DegradedReason)
			}
		} else if res.DegradedReason != "" {
			t.Fatalf("budget %v: complete run carries reason %q", budget, res.DegradedReason)
		}
		for i := 1; i < len(res.Patterns); i++ {
			if res.Patterns[i].Score > res.Patterns[i-1].Score {
				t.Fatalf("budget %v: partial result not sorted", budget)
			}
		}
	}
}

func TestRiskLocCancellationLeaksNoGoroutines(t *testing.T) {
	snap := degradedFixture(t)
	l := mustNew(t)

	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := l.LocalizeContext(ctx, snap, 10); err != nil {
			t.Fatal(err)
		}
	}
	// Give any stray workers a moment to show up before counting.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew %d -> %d after canceled runs", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSafeLocalizeIntegration runs RiskLoc through the shared SafeLocalize
// plumbing, which is how the serving layers invoke every localizer.
func TestRiskLocSafeLocalizeIntegration(t *testing.T) {
	snap := degradedFixture(t)
	res, err := localize.SafeLocalize(context.Background(), mustNew(t), snap, 5)
	if err != nil {
		t.Fatalf("SafeLocalize: %v", err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("SafeLocalize returned no patterns on an anomalous fixture")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err = localize.SafeLocalize(ctx, mustNew(t), snap, 5)
	if err != nil {
		t.Fatalf("SafeLocalize canceled: %v", err)
	}
	if !res.Degraded {
		t.Fatal("SafeLocalize under canceled ctx not marked degraded")
	}
}

func manyValues(prefix string, n int) []string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = prefix + string(rune('a'+i/26)) + string(rune('a'+i%26))
	}
	return vals
}
