package pipeline

import (
	"context"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/kpi"
	"repro/internal/rapminer"
)

var t0 = time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)

func testSchema() *kpi.Schema {
	return kpi.MustSchema(
		kpi.Attribute{Name: "A", Values: []string{"a1", "a2", "a3"}},
		kpi.Attribute{Name: "B", Values: []string{"b1", "b2"}},
	)
}

// snapshotWithDrop builds a dense snapshot where leaves under scope lose
// frac of their forecast value.
func snapshotWithDrop(t *testing.T, scope kpi.Combination, frac float64) *kpi.Snapshot {
	t.Helper()
	s := testSchema()
	var leaves []kpi.Leaf
	for a := int32(0); a < 3; a++ {
		for b := int32(0); b < 2; b++ {
			combo := kpi.Combination{a, b}
			leaf := kpi.Leaf{Combo: combo, Actual: 100, Forecast: 100}
			if scope != nil && scope.Matches(combo) {
				leaf.Actual = 100 * (1 - frac)
			}
			leaves = append(leaves, leaf)
		}
	}
	snap, err := kpi.NewSnapshot(s, leaves)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	return snap
}

func testMonitor(t *testing.T) *Monitor {
	t.Helper()
	miner, err := rapminer.New(rapminer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(DefaultConfig(anomaly.DefaultRelativeDeviation(), miner))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// process labels snap in full with m's detector, as ContinuousRunner does
// before every full tick, then processes it.
func process(m *Monitor, ts time.Time, snap *kpi.Snapshot) (Event, error) {
	if snap != nil {
		anomaly.Label(snap, m.cfg.Detector)
	}
	return m.ProcessContext(context.Background(), ts, snap)
}

func TestNewValidation(t *testing.T) {
	miner := rapminer.MustNew(rapminer.DefaultConfig())
	det := anomaly.DefaultRelativeDeviation()
	bad := []Config{
		{Localizer: miner, K: 3, AlarmThreshold: 0.02, DebounceTicks: 1, ResolveTicks: 1},
		{Detector: det, K: 3, AlarmThreshold: 0.02, DebounceTicks: 1, ResolveTicks: 1},
		{Detector: det, Localizer: miner, K: 0, AlarmThreshold: 0.02, DebounceTicks: 1, ResolveTicks: 1},
		{Detector: det, Localizer: miner, K: 3, AlarmThreshold: 0, DebounceTicks: 1, ResolveTicks: 1},
		{Detector: det, Localizer: miner, K: 3, AlarmThreshold: 0.02, DebounceTicks: 0, ResolveTicks: 1},
		{Detector: det, Localizer: miner, K: 3, AlarmThreshold: 0.02, DebounceTicks: 1, ResolveTicks: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestIncidentLifecycle(t *testing.T) {
	m := testMonitor(t)
	scope := kpi.MustParseCombination(testSchema(), "(a2, *)")

	clean := func() *kpi.Snapshot { return snapshotWithDrop(t, nil, 0) }
	failing := func() *kpi.Snapshot { return snapshotWithDrop(t, scope, 0.5) }

	// Quiet tick.
	ev, err := process(m, t0, clean())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventTick || m.Current() != nil {
		t.Fatalf("quiet tick produced %v", ev.Kind)
	}

	// First alarming tick: debounce (DebounceTicks = 2).
	ev, err = process(m, t0.Add(time.Minute), failing())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventArming {
		t.Fatalf("first alarming tick = %v, want arming", ev.Kind)
	}

	// Second alarming tick: incident opens with the localized scope.
	ev, err = process(m, t0.Add(2*time.Minute), failing())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventOpened || ev.Incident == nil {
		t.Fatalf("second alarming tick = %v", ev.Kind)
	}
	if len(ev.Incident.Scopes) == 0 || !ev.Incident.Scopes[0].Combo.Equal(scope) {
		t.Fatalf("incident scopes = %v, want (a2, *)", ev.Incident.Scopes)
	}
	if m.Current() == nil || m.Current().ID != 1 {
		t.Fatal("incident not tracked")
	}

	// Same failure continues: ongoing, no update.
	ev, err = process(m, t0.Add(3*time.Minute), failing())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventOngoing || ev.Incident.Updates != 0 {
		t.Fatalf("continuation = %v (updates %d)", ev.Kind, ev.Incident.Updates)
	}

	// The failure scope changes: update.
	scope2 := kpi.MustParseCombination(testSchema(), "(a3, *)")
	ev, err = process(m, t0.Add(4*time.Minute), snapshotWithDrop(t, scope2, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventUpdated || ev.Incident.Updates != 1 {
		t.Fatalf("scope change = %v (updates %d)", ev.Kind, ev.Incident.Updates)
	}

	// Three clean ticks (ResolveTicks = 3): first two ongoing, third
	// resolves.
	for i := 0; i < 2; i++ {
		ev, err = process(m, t0.Add(time.Duration(5+i)*time.Minute), clean())
		if err != nil {
			t.Fatal(err)
		}
		if ev.Kind != EventOngoing {
			t.Fatalf("clean tick %d = %v, want ongoing", i, ev.Kind)
		}
	}
	ev, err = process(m, t0.Add(7*time.Minute), clean())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventResolved || ev.Incident == nil || ev.Incident.ResolvedAt.IsZero() {
		t.Fatalf("resolve tick = %v", ev.Kind)
	}
	if m.Current() != nil {
		t.Fatal("incident still open after resolve")
	}

	// A new failure opens incident #2.
	process(m, t0.Add(8*time.Minute), failing())
	ev, err = process(m, t0.Add(9*time.Minute), failing())
	if err != nil {
		t.Fatal(err)
	}
	if ev.Kind != EventOpened || ev.Incident.ID != 2 {
		t.Fatalf("second incident = %v id %d", ev.Kind, ev.Incident.ID)
	}
}

func TestBlipDoesNotOpenIncident(t *testing.T) {
	m := testMonitor(t)
	scope := kpi.MustParseCombination(testSchema(), "(a1, *)")
	// One alarming tick, then clean: the debounce suppresses it.
	if ev, _ := process(m, t0, snapshotWithDrop(t, scope, 0.5)); ev.Kind != EventArming {
		t.Fatalf("blip tick = %v", ev.Kind)
	}
	if ev, _ := process(m, t0.Add(time.Minute), snapshotWithDrop(t, nil, 0)); ev.Kind != EventTick {
		t.Fatalf("post-blip tick = %v", ev.Kind)
	}
	if m.Current() != nil {
		t.Fatal("blip opened an incident")
	}
}

func TestProcessNilSnapshot(t *testing.T) {
	m := testMonitor(t)
	if _, err := process(m, t0, nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EventTick, EventArming, EventOpened, EventUpdated, EventOngoing, EventResolved}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d has bad name %q", k, s)
		}
		seen[s] = true
	}
	if EventKind(99).String() == "" {
		t.Error("unknown kind has empty name")
	}
}
