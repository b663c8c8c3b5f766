package leafforecast

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/cdn"
	"repro/internal/kpi"
	"repro/internal/rapminer"
	"repro/internal/timeseries"
)

func TestNewValidation(t *testing.T) {
	schema := kpi.MustSchema(kpi.Attribute{Name: "A", Values: []string{"x"}})
	bad := []Config{
		{Forecaster: nil, Window: 10, MinHistory: 2},
		{Forecaster: timeseries.EWMA{Alpha: 0.3}, Window: 1, MinHistory: 1},
		{Forecaster: timeseries.EWMA{Alpha: 0.3}, Window: 10, MinHistory: 0},
		{Forecaster: timeseries.EWMA{Alpha: 0.3}, Window: 10, MinHistory: 11},
	}
	for i, cfg := range bad {
		if _, err := New(schema, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Error("nil schema accepted")
	}
}

func TestRingWindow(t *testing.T) {
	r := newRing(3)
	if r.len() != 0 {
		t.Fatal("fresh ring not empty")
	}
	for i := 1; i <= 5; i++ {
		r.push(float64(i))
	}
	if r.len() != 3 {
		t.Fatalf("ring len = %d, want 3", r.len())
	}
	got := r.appendValues(nil)
	want := []float64{3, 4, 5}
	if !slices.Equal(got, want) {
		t.Fatalf("values = %v, want %v", got, want)
	}
	// Appended after what the slice holds, at every fill and wrap.
	r = newRing(3)
	for i := 1; i <= 7; i++ {
		r.push(float64(i))
		got := r.appendValues([]float64{-1})
		want := []float64{-1}
		for v := max(1, i-2); v <= i; v++ {
			want = append(want, float64(v))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("after %d pushes: values = %v, want %v", i, got, want)
		}
	}
}

// TestForecastRefoldsEachLeafsWindow holds Forecast to the EWMA of each
// leaf's own last Window actuals, computed here from a plain record: leaves
// joining on different ticks give windows of every length, full and
// wrapped ones included, one after another through the shared scratch.
func TestForecastRefoldsEachLeafsWindow(t *testing.T) {
	schema := kpi.MustSchema(kpi.Attribute{Name: "A", Values: []string{"a1", "a2", "a3", "a4"}})
	ewma := timeseries.EWMA{Alpha: 0.3}
	tr, err := New(schema, Config{Forecaster: ewma, Window: 6, MinHistory: 2})
	if err != nil {
		t.Fatal(err)
	}
	history := make(map[int32][]float64)
	for tick := 0; tick < 12; tick++ {
		var leaves []kpi.Leaf
		for code := int32(0); code < 4; code++ {
			// Leaf k joins on tick 3k, so a4 has 3 samples at the end.
			if tick >= 3*int(code) {
				leaves = append(leaves, kpi.Leaf{Combo: kpi.Combination{code}, Actual: float64(tick*10+int(code)) + 0.1*float64(tick%3)})
			}
		}
		snap, err := kpi.NewSnapshot(schema, leaves)
		if err != nil {
			t.Fatal(err)
		}
		out, n, err := tr.Forecast(snap)
		if err != nil {
			t.Fatal(err)
		}
		forecast := 0
		for i, l := range out.Leaves {
			want := l.Actual
			if h := history[l.Combo[0]]; len(h) >= 2 {
				want, _ = ewma.Forecast(h[max(0, len(h)-6):])
				forecast++
			}
			if math.Float64bits(l.Forecast) != math.Float64bits(want) {
				t.Fatalf("tick %d leaf %d: forecast %v, want %v", tick, i, l.Forecast, want)
			}
		}
		if n != forecast {
			t.Fatalf("tick %d: %d leaves forecast, want %d", tick, n, forecast)
		}
		if err := tr.Observe(snap); err != nil {
			t.Fatal(err)
		}
		for _, l := range snap.Leaves {
			history[l.Combo[0]] = append(history[l.Combo[0]], l.Actual)
		}
	}
}

func TestColdStartNeverAlarms(t *testing.T) {
	schema := kpi.MustSchema(
		kpi.Attribute{Name: "A", Values: []string{"a1", "a2"}},
	)
	tr, err := New(schema, Config{
		Forecaster: timeseries.EWMA{Alpha: 0.3},
		Window:     10,
		MinHistory: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := kpi.NewSnapshot(schema, []kpi.Leaf{
		{Combo: kpi.Combination{0}, Actual: 100},
		{Combo: kpi.Combination{1}, Actual: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	out, forecast, err := tr.Forecast(snap)
	if err != nil {
		t.Fatal(err)
	}
	if forecast != 0 {
		t.Fatalf("cold tracker forecast %d leaves", forecast)
	}
	for _, l := range out.Leaves {
		if l.Forecast != l.Actual {
			t.Fatalf("cold leaf forecast %v != actual %v", l.Forecast, l.Actual)
		}
	}
	// The input snapshot is untouched.
	if snap.Leaves[0].Forecast == snap.Leaves[0].Actual && snap.Leaves[0].Forecast != 0 {
		t.Fatal("Forecast mutated its input")
	}
}

func TestForecastConvergesOnStableSignal(t *testing.T) {
	schema := kpi.MustSchema(kpi.Attribute{Name: "A", Values: []string{"a1"}})
	tr, err := New(schema, Config{
		Forecaster: timeseries.EWMA{Alpha: 0.5},
		Window:     32,
		MinHistory: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(v float64) *kpi.Snapshot {
		snap, err := kpi.NewSnapshot(schema, []kpi.Leaf{{Combo: kpi.Combination{0}, Actual: v}})
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	for i := 0; i < 10; i++ {
		if err := tr.Observe(mk(40)); err != nil {
			t.Fatal(err)
		}
	}
	out, forecast, err := tr.Forecast(mk(40))
	if err != nil {
		t.Fatal(err)
	}
	if forecast != 1 {
		t.Fatalf("forecast %d leaves, want 1", forecast)
	}
	if math.Abs(out.Leaves[0].Forecast-40) > 1e-6 {
		t.Fatalf("forecast = %v, want 40", out.Leaves[0].Forecast)
	}
}

func TestSchemaMismatchRejected(t *testing.T) {
	a := kpi.MustSchema(kpi.Attribute{Name: "A", Values: []string{"x"}})
	b := kpi.MustSchema(kpi.Attribute{Name: "A", Values: []string{"x"}})
	tr, err := New(a, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := kpi.NewSnapshot(b, []kpi.Leaf{{Combo: kpi.Combination{0}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Observe(snap); err == nil {
		t.Error("Observe accepted a foreign schema")
	}
	if _, _, err := tr.Forecast(snap); err == nil {
		t.Error("Forecast accepted a foreign schema")
	}
	if err := tr.Observe(nil); err == nil {
		t.Error("Observe accepted nil")
	}
	if _, _, err := tr.Forecast(nil); err == nil {
		t.Error("Forecast accepted nil")
	}
}

// TestEndToEndWithoutOracleForecasts drives the full realistic pipeline:
// the tracker learns the CDN's behavior from actual observations only,
// then a failure hits, and detection+localization on the tracker's own
// forecasts recovers the failure scope.
func TestEndToEndWithoutOracleForecasts(t *testing.T) {
	sim, err := cdn.NewSimulator(cdn.DefaultConfig(33))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(sim.Schema(), Config{
		Forecaster: timeseries.EWMA{Alpha: 0.4},
		Window:     64,
		MinHistory: 10,
	})
	if err != nil {
		t.Fatal(err)
	}

	start := time.Date(2026, 2, 23, 20, 0, 0, 0, time.UTC)
	for m := 0; m < 20; m++ {
		snap, err := sim.SnapshotAt(start.Add(time.Duration(m) * time.Minute))
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Observe(snap); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Tracked() != sim.NumActiveLeaves() {
		t.Fatalf("tracking %d leaves, want %d", tr.Tracked(), sim.NumActiveLeaves())
	}

	// Failure tick: a site outage, observed values only.
	failing, err := sim.SnapshotAt(start.Add(20 * time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	scope := kpi.MustParseCombination(sim.Schema(), "(*, *, *, Site9)")
	err = cdn.ApplyFailures(failing, []cdn.Failure{{
		Kind: cdn.SiteOutage, Scope: scope, Severity: 0.7,
	}})
	if err != nil {
		t.Fatal(err)
	}

	withForecasts, forecast, err := tr.Forecast(failing)
	if err != nil {
		t.Fatal(err)
	}
	if forecast < tr.Tracked()*9/10 {
		t.Fatalf("only %d of %d leaves forecast", forecast, tr.Tracked())
	}
	// Detect against the tracker's forecasts (3% simulator noise needs a
	// threshold above it; the 70% drop is far beyond).
	n := anomaly.Label(withForecasts, anomaly.RelativeDeviation{Threshold: 0.3, Eps: 1e-9})
	if n == 0 {
		t.Fatal("no anomalies detected")
	}
	miner := rapminer.MustNew(rapminer.DefaultConfig())
	res, err := miner.Localize(withForecasts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 || !res.Patterns[0].Combo.Equal(scope) {
		t.Fatalf("pipeline localized %s, want (*, *, *, Site9)",
			res.Format(sim.Schema()))
	}
}

// Tracked returns the number of leaves with any history.
func (t *Tracker) Tracked() int { return len(t.leaves) }
