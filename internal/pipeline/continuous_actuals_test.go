package pipeline

import (
	"context"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/cdn"
	"repro/internal/kpi"
	"repro/internal/rapminer"
)

// actualsRunner builds the runner as the HTTP server does (the default
// 0.095 detector, a 1% alarm), with a one-tick debounce and a two-tick
// resolve.
func actualsRunner(t *testing.T) *ContinuousRunner {
	t.Helper()
	cfg := DefaultConfig(anomaly.DefaultRelativeDeviation(), rapminer.MustNew(rapminer.DefaultConfig()))
	cfg.AlarmThreshold = 0.01
	cfg.DebounceTicks = 1
	cfg.ResolveTicks = 2
	r, err := NewContinuous(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// observeActuals observes the simulator's minute m with its oracle
// forecasts wiped, and a site outage over scope applied when failing.
func observeActuals(t *testing.T, r *ContinuousRunner, sim *cdn.Simulator, start time.Time, m int, scope kpi.Combination, failing bool) Event {
	t.Helper()
	ts := start.Add(time.Duration(m) * time.Minute)
	snap, err := sim.SnapshotAt(ts)
	if err != nil {
		t.Fatal(err)
	}
	// Raw observations only: wipe the simulator's oracle forecasts.
	snap.Rewrite(func(l kpi.Leaf) (float64, float64, bool) { return l.Actual, 0, l.Anomalous })
	if failing {
		if err := cdn.ApplyFailures(snap, []cdn.Failure{{
			Kind: cdn.SiteOutage, Scope: scope, Severity: 0.8,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	ev, err := r.ObserveActuals(context.Background(), ts, snap)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

// TestContinuousActualsFullLoop drives actuals-only ticks: the cold
// forecaster keeps the warm-up quiet, a site outage opens an incident with
// the outage's scope, and two clean ticks resolve it into the history.
func TestContinuousActualsFullLoop(t *testing.T) {
	sim, err := cdn.NewSimulator(cdn.DefaultConfig(71))
	if err != nil {
		t.Fatal(err)
	}
	r := actualsRunner(t)
	start := time.Date(2026, 3, 3, 21, 0, 0, 0, time.UTC)
	scope := kpi.MustParseCombination(sim.Schema(), "(*, *, *, Site4)")
	tick := func(m int, failing bool) Event {
		t.Helper()
		return observeActuals(t, r, sim, start, m, scope, failing)
	}

	// Warm-up: the cold tracker never alarms.
	for m := 0; m < 8; m++ {
		if ev := tick(m, false); ev.Kind != EventTick {
			t.Fatalf("warm-up tick %d = %v", m, ev.Kind)
		}
	}
	// Failure: incident opens with the right scope (debounce = 1).
	ev := tick(8, true)
	if ev.Kind != EventOpened {
		t.Fatalf("failure tick = %v, want opened", ev.Kind)
	}
	if len(ev.Incident.Scopes) == 0 || !ev.Incident.Scopes[0].Combo.Equal(scope) {
		t.Fatalf("incident scope = %v, want (*, *, *, Site4)", ev.Incident.Scopes)
	}
	// Recovery: two clean ticks resolve (resolve = 2); the incident
	// lands in history.
	tick(9, false)
	ev = tick(10, false)
	if ev.Kind != EventResolved {
		t.Fatalf("recovery tick = %v, want resolved", ev.Kind)
	}
	if got := r.Monitor().History(); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("history = %v", got)
	}
	if r.Monitor().Current() != nil {
		t.Fatal("incident still open")
	}
}

// TestContinuousActualsDoesNotLearnDuringIncidents holds a long outage:
// if the tracker learned failure data, the baseline would converge to the
// degraded level and the incident would resolve spuriously.
func TestContinuousActualsDoesNotLearnDuringIncidents(t *testing.T) {
	sim, err := cdn.NewSimulator(cdn.DefaultConfig(72))
	if err != nil {
		t.Fatal(err)
	}
	r := actualsRunner(t)
	start := time.Date(2026, 3, 4, 21, 0, 0, 0, time.UTC)
	scope := kpi.MustParseCombination(sim.Schema(), "(*, *, *, Site2)")
	tick := func(m int, failing bool) Event {
		t.Helper()
		return observeActuals(t, r, sim, start, m, scope, failing)
	}

	for m := 0; m < 8; m++ {
		tick(m, false)
	}
	if tick(8, true).Kind != EventOpened {
		t.Fatal("incident did not open")
	}
	// A long outage: the incident must stay open.
	for m := 9; m < 25; m++ {
		ev := tick(m, true)
		if ev.Kind == EventResolved {
			t.Fatalf("incident resolved at minute %d while the failure persists", m)
		}
	}
	if r.Monitor().Current() == nil {
		t.Fatal("incident lost during the outage")
	}
}

func TestContinuousActualsNilSnapshot(t *testing.T) {
	r := actualsRunner(t)
	if _, err := r.ObserveActuals(context.Background(), time.Now(), nil); err == nil {
		t.Error("nil snapshot accepted")
	}
	if r.Ticks() != 0 {
		t.Errorf("ticks %d after a rejected snapshot, want 0", r.Ticks())
	}
}
