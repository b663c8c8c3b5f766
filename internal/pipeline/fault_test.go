package pipeline

import (
	"context"
	"io"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/kpi"
	"repro/internal/localize"
	"repro/internal/obs"
	"repro/internal/rapminer"
)

// zeroForecastSnapshot builds a snapshot whose aggregate forecast is zero
// while actual traffic flows — the shape a total forecasting-backend outage
// produces.
func zeroForecastSnapshot(t *testing.T, actual float64) *kpi.Snapshot {
	t.Helper()
	s := testSchema()
	var leaves []kpi.Leaf
	for a := int32(0); a < 3; a++ {
		for b := int32(0); b < 2; b++ {
			leaves = append(leaves, kpi.Leaf{
				Combo: kpi.Combination{a, b}, Actual: actual, Forecast: 0,
			})
		}
	}
	snap, err := kpi.NewSnapshot(s, leaves)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestZeroForecastOutageAlarms is the regression test for the zero-forecast
// blind spot: nonzero actuals against an all-zero forecast used to divide
// into a 0.0 deviation and read as a perfectly clean tick. The monitor must
// instead see the maximal relative deviation and start arming.
func TestZeroForecastOutageAlarms(t *testing.T) {
	m := testMonitor(t)
	ev, err := m.Process(t0, zeroForecastSnapshot(t, 100))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Deviation != 1 {
		t.Fatalf("deviation = %v, want 1 (maximal) on a forecast outage", ev.Deviation)
	}
	if ev.Kind != EventArming {
		t.Fatalf("event = %v, want %v: a forecast outage must arm the alarm", ev.Kind, EventArming)
	}

	// Zero forecast with zero actuals stays a clean tick (no traffic, no
	// forecast — nothing to alarm about).
	m2 := testMonitor(t)
	ev, err = m2.Process(t0, zeroForecastSnapshot(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Deviation != 0 || ev.Kind != EventTick {
		t.Fatalf("all-zero tick: deviation %v kind %v, want 0 and %v", ev.Deviation, ev.Kind, EventTick)
	}
}

// panicLocalizer panics on snapshots with exactly boomLen leaves.
type panicLocalizer struct{ boomLen int }

func (p panicLocalizer) Name() string { return "panic" }

func (p panicLocalizer) Localize(s *kpi.Snapshot, k int) (localize.Result, error) {
	return p.LocalizeContext(context.Background(), s, k)
}

func (p panicLocalizer) LocalizeContext(_ context.Context, s *kpi.Snapshot, k int) (localize.Result, error) {
	if s.Len() == p.boomLen {
		panic("poisoned snapshot")
	}
	return localize.Result{Patterns: []localize.ScoredPattern{{Score: float64(s.Len())}}}, nil
}

// TestBatchExecutorPanicIsolation checks a panicking localizer fails only
// its own batch item: neighbors complete, the pool survives, and the
// executor's accounting drains back to zero.
func TestBatchExecutorPanicIsolation(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewBatchExecutor(reg, 2, -1)
	snaps := batchSnapshots(t, 5) // leaf counts 2..6
	results, err := e.Execute(context.Background(), panicLocalizer{boomLen: 4}, snaps, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, br := range results {
		if snaps[i].Len() == 4 {
			if br.Err == nil || !strings.Contains(br.Err.Error(), "panicked") {
				t.Fatalf("poisoned item error = %v, want a panic-derived error", br.Err)
			}
			continue
		}
		if br.Err != nil {
			t.Fatalf("healthy item %d failed: %v", i, br.Err)
		}
		if want := float64(snaps[i].Len()); br.Result.Patterns[0].Score != want {
			t.Fatalf("healthy item %d score %v, want %v", i, br.Result.Patterns[0].Score, want)
		}
	}
	if got := e.pending.Load(); got != 0 {
		t.Fatalf("pending = %d after panic batch, want 0", got)
	}
	if got := e.depth.Value(); got != 0 {
		t.Fatalf("queue depth gauge = %v after panic batch, want 0", got)
	}
}

// TestPanicFailsOnlyItsBatchItem checks one poisoned snapshot inside a
// batch fails only its own item when the real miner runs it.
func TestPanicFailsOnlyItsBatchItem(t *testing.T) {
	scope := kpi.MustParseCombination(testSchema(), "(a2, *)")
	good := func() *kpi.Snapshot {
		snap := snapshotWithDrop(t, scope, 0.5)
		anomaly.Label(snap, anomaly.DefaultRelativeDeviation())
		return snap
	}
	poisoned := &kpi.Snapshot{Schema: testSchema(), Leaves: []kpi.Leaf{
		{Combo: kpi.Combination{0, 0}, Actual: 1, Forecast: 100, Anomalous: true},
		{Combo: kpi.Combination{9, 1}, Actual: 100, Forecast: 100}, // code 9 out of range
	}}
	e := NewBatchExecutor(obs.NewRegistry(), 2, -1)
	results, err := e.Execute(context.Background(), rapminer.MustNew(rapminer.DefaultConfig()),
		[]*kpi.Snapshot{good(), poisoned, good()}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy neighbors failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "panic") {
		t.Fatalf("poisoned item error = %v, want a panic-derived error", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if got := results[i].Result.Patterns; len(got) != 1 || !got[0].Combo.Equal(scope) {
			t.Fatalf("healthy item %d patterns = %+v, want %v", i, got, scope)
		}
	}
}

// TestBatchQueueDepthGaugeConverges is the regression test for the
// admit/finish gauge race: under concurrent batches the published depth must
// track the pending counter via commutative deltas, never stick at a
// stale-high snapshot. After every batch drains, both must read zero.
func TestBatchQueueDepthGaugeConverges(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewBatchExecutor(reg, 4, 1000)
	var wg sync.WaitGroup
	for b := 0; b < 8; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := e.Execute(context.Background(), indexLocalizer{}, batchSnapshots(t, 3), 3); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := e.pending.Load(); got != 0 {
		t.Fatalf("pending = %d after all batches, want 0", got)
	}
	if got := e.depth.Value(); got != 0 {
		t.Fatalf("queue depth gauge = %v after all batches, want 0 (stale Set race)", got)
	}
}

// ctxLocalizer is a localizer that records the context each
// run received.
type ctxLocalizer struct{ got []context.Context }

func (c *ctxLocalizer) Name() string { return "ctx" }

func (c *ctxLocalizer) Localize(s *kpi.Snapshot, k int) (localize.Result, error) {
	return c.LocalizeContext(context.Background(), s, k)
}

func (c *ctxLocalizer) LocalizeContext(ctx context.Context, s *kpi.Snapshot, k int) (localize.Result, error) {
	c.got = append(c.got, ctx)
	return localize.Result{}, nil
}

// alarmingTicks drives a fresh monitor over loc through enough failing
// ticks to localize once, returning the localizing tick's error.
func alarmingTicks(t *testing.T, ctx context.Context, loc localize.Localizer) error {
	t.Helper()
	m, err := New(DefaultConfig(anomaly.DefaultRelativeDeviation(), loc))
	if err != nil {
		t.Fatal(err)
	}
	scope := kpi.MustParseCombination(testSchema(), "(a2, *)")
	if _, err := m.ProcessContext(ctx, t0, snapshotWithDrop(t, scope, 0.5)); err != nil {
		t.Fatalf("arming tick: %v", err)
	}
	_, err = m.ProcessContext(ctx, t0.Add(time.Minute), snapshotWithDrop(t, scope, 0.5))
	return err
}

// TestPlainLocalizerPanicIsolated checks a localizer without diagnostics
// that panics fails its tick with an error instead of unwinding the
// caller's goroutine.
func TestPlainLocalizerPanicIsolated(t *testing.T) {
	err := alarmingTicks(t, context.Background(), panicLocalizer{boomLen: 6})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("localizing tick error = %v, want a panic-derived error", err)
	}
}

// TestContextLocalizerGetsTickContext checks a localizer without
// diagnostics runs under the tick's context: it carries the caller's
// values and the tick's trace.
func TestContextLocalizerGetsTickContext(t *testing.T) {
	type key struct{}
	loc := &ctxLocalizer{}
	ctx := context.WithValue(context.Background(), key{}, "tick")
	if err := alarmingTicks(t, ctx, loc); err != nil {
		t.Fatal(err)
	}
	if len(loc.got) != 1 {
		t.Fatalf("localizer ran %d times, want 1", len(loc.got))
	}
	if v := loc.got[0].Value(key{}); v != "tick" {
		t.Fatalf("localizer context value = %v, want the caller's", v)
	}
	if _, ok := obs.TraceFromContext(loc.got[0]); !ok {
		t.Fatal("localizer context carries no trace")
	}
}

// degradedLocalizer answers every run with a degraded root pattern.
type degradedLocalizer struct{}

func (degradedLocalizer) Name() string { return "degraded" }

func (d degradedLocalizer) Localize(s *kpi.Snapshot, k int) (localize.Result, error) {
	return d.LocalizeContext(context.Background(), s, k)
}

func (degradedLocalizer) LocalizeContext(_ context.Context, s *kpi.Snapshot, k int) (localize.Result, error) {
	return localize.Result{
		Patterns:       []localize.ScoredPattern{{Combo: kpi.NewRoot(s.Schema.NumAttributes()), Score: 1}},
		Degraded:       true,
		DegradedReason: localize.DegradedDeadline,
	}, nil
}

// TestDegradedTickLogsOnce checks a degraded localizing tick writes one
// Warn line naming the method and reason. The Monitor, not the serving
// path it shares with the HTTP API, logs it: the API reports degraded
// requests on its sampled request line.
func TestDegradedTickLogsOnce(t *testing.T) {
	var buf strings.Builder
	obs.ConfigureLogging(&buf, slog.LevelInfo, false)
	t.Cleanup(func() { obs.ConfigureLogging(io.Discard, slog.LevelInfo, false) })
	if err := alarmingTicks(t, context.Background(), degradedLocalizer{}); err != nil {
		t.Fatal(err)
	}
	var warns []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "level=WARN") {
			warns = append(warns, line)
		}
	}
	if len(warns) != 1 || !strings.Contains(warns[0], `msg="localization degraded"`) ||
		!strings.Contains(warns[0], "method=degraded") || !strings.Contains(warns[0], `reason="deadline exceeded"`) {
		t.Fatalf("Warn lines = %q, want one degraded-run line", warns)
	}
}
