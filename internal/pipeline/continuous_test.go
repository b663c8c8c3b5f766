package pipeline

import (
	"context"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/kpi"
	"repro/internal/rapminer"
)

func testContinuous(t *testing.T, window int) *ContinuousRunner {
	t.Helper()
	miner, err := rapminer.New(rapminer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewContinuous(DefaultConfig(anomaly.DefaultRelativeDeviation(), miner), window)
	if err != nil {
		t.Fatalf("NewContinuous: %v", err)
	}
	return r
}

// dropDelta builds a delta that re-observes every leaf: leaves under scope
// lose frac of their forecast, the rest report clean.
func dropDelta(scope kpi.Combination, frac float64) kpi.Delta {
	var d kpi.Delta
	for a := int32(0); a < 3; a++ {
		for b := int32(0); b < 2; b++ {
			combo := kpi.Combination{a, b}
			u := kpi.LeafUpdate{Combo: combo, Actual: 100, Forecast: 100}
			if scope != nil && scope.Matches(combo) {
				u.Actual = 100 * (1 - frac)
			}
			d.Updates = append(d.Updates, u)
		}
	}
	return d
}

// TestContinuousDeltaMatchesSnapshots drives the same incident lifecycle two
// ways — a ContinuousRunner fed a baseline plus per-tick deltas, and a plain
// Monitor fed equivalent full snapshots — and demands identical events and
// identical localized scopes at every tick.
func TestContinuousDeltaMatchesSnapshots(t *testing.T) {
	ctx := context.Background()
	r := testContinuous(t, 16)
	ref := testMonitor(t)
	scope := kpi.MustParseCombination(testSchema(), "(a2, *)")

	// Baseline: clean world.
	ev, err := r.ObserveSnapshot(ctx, t0, snapshotWithDrop(t, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	refEv, err := process(ref, t0, snapshotWithDrop(t, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != refEv.Kind {
		t.Fatalf("baseline: %v vs %v", ev.Kind, refEv.Kind)
	}

	// Failure opens (debounce + open), persists, then heals to resolution.
	ticks := []kpi.Combination{scope, scope, scope, nil, nil, nil}
	for i, sc := range ticks {
		ts := t0.Add(time.Duration(i+1) * time.Minute)
		frac := 0.5
		if sc == nil {
			frac = 0
		}
		ev, res, err := r.ObserveDelta(ctx, ts, dropDelta(sc, frac))
		if err != nil {
			t.Fatalf("tick %d: %v", i, err)
		}
		if !res.PatchedFrame || !res.PatchedLabels {
			t.Fatalf("tick %d: caches not patched: %+v", i, res)
		}
		refEv, err := process(ref, ts, snapshotWithDrop(t, sc, frac))
		if err != nil {
			t.Fatalf("tick %d: reference: %v", i, err)
		}
		if ev.Kind != refEv.Kind || ev.Deviation != refEv.Deviation {
			t.Fatalf("tick %d: delta path %v (dev %v) vs snapshot path %v (dev %v)",
				i, ev.Kind, ev.Deviation, refEv.Kind, refEv.Deviation)
		}
		if (ev.Incident == nil) != (refEv.Incident == nil) {
			t.Fatalf("tick %d: incident presence diverges", i)
		}
		if ev.Incident != nil {
			got, want := ev.Incident.Scopes, refEv.Incident.Scopes
			if len(got) != len(want) {
				t.Fatalf("tick %d: scopes %v vs %v", i, got, want)
			}
			for j := range want {
				if !got[j].Combo.Equal(want[j].Combo) {
					t.Fatalf("tick %d: scopes %v vs %v", i, got, want)
				}
			}
		}
	}

	// The lifecycle actually ran: an incident opened and resolved.
	kinds := map[EventKind]bool{}
	for _, st := range r.Window() {
		kinds[st.Kind] = true
	}
	if !kinds[EventOpened] || !kinds[EventResolved] {
		t.Fatalf("lifecycle incomplete: window kinds %v", kinds)
	}
}

// TestContinuousWindowAndErrors covers the bookkeeping around the happy
// path: tick counting, window eviction, the no-baseline error, and that an
// invalid delta is rejected without recording a tick or corrupting state.
func TestContinuousWindowAndErrors(t *testing.T) {
	ctx := context.Background()

	if _, err := NewContinuous(DefaultConfig(anomaly.DefaultRelativeDeviation(),
		rapminer.MustNew(rapminer.DefaultConfig())), 0); err == nil {
		t.Fatal("window 0 accepted")
	}

	r := testContinuous(t, 3)
	if _, _, err := r.ObserveDelta(ctx, t0, dropDelta(nil, 0)); err == nil {
		t.Fatal("delta before first snapshot accepted")
	}
	if r.Len() != 0 || r.Schema() != nil || r.Ticks() != 0 {
		t.Fatal("failed delta mutated runner state")
	}

	if _, err := r.ObserveSnapshot(ctx, t0, snapshotWithDrop(t, nil, 0)); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 6 || r.Schema() == nil {
		t.Fatalf("baseline not installed: len %d", r.Len())
	}
	st := r.Window()
	if len(st) != 1 || st[0].Delta || st[0].Touched != 6 {
		t.Fatalf("baseline tick stats %+v", st)
	}

	// An update naming a leaf outside the world must be rejected atomically:
	// no tick recorded, leaf count unchanged.
	bad := kpi.Delta{Updates: []kpi.LeafUpdate{
		{Combo: kpi.Combination{-1, 0}, Actual: 1, Forecast: 1},
	}}
	if _, _, err := r.ObserveDelta(ctx, t0.Add(time.Minute), bad); err == nil {
		t.Fatal("wildcard update accepted")
	}
	if r.Ticks() != 1 || r.Len() != 6 {
		t.Fatalf("rejected delta recorded: ticks %d len %d", r.Ticks(), r.Len())
	}

	// Window stays bounded at 3 while the tick counter keeps climbing.
	for i := 0; i < 5; i++ {
		ts := t0.Add(time.Duration(i+1) * time.Minute)
		if _, _, err := r.ObserveDelta(ctx, ts, dropDelta(nil, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if r.Ticks() != 6 {
		t.Fatalf("ticks %d, want 6", r.Ticks())
	}
	st = r.Window()
	if len(st) != 3 {
		t.Fatalf("window %d entries, want 3", len(st))
	}
	for i, s := range st {
		if !s.Delta || !s.Patched {
			t.Fatalf("window[%d] = %+v, want patched delta tick", i, s)
		}
	}
	// Oldest-first: the retained ticks are the last three.
	if !st[2].Time.After(st[0].Time) {
		t.Fatalf("window not oldest-first: %v .. %v", st[0].Time, st[2].Time)
	}
}
