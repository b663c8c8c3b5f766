package pipeline

import (
	"errors"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/cdn"
	"repro/internal/kpi"
	"repro/internal/rapminer"
)

// failingSource injects a 50% drop under a fixed scope from a given tick
// onward, wrapping the CDN simulator.
type failingSource struct {
	sim   *cdn.Simulator
	scope kpi.Combination
	from  time.Time
}

func (f *failingSource) Schema() *kpi.Schema { return f.sim.Schema() }

func (f *failingSource) SnapshotAt(ts time.Time) (*kpi.Snapshot, error) {
	snap, err := f.sim.SnapshotAt(ts)
	if err != nil {
		return nil, err
	}
	if !ts.Before(f.from) {
		err = cdn.ApplyFailures(snap, []cdn.Failure{{
			Kind:     cdn.NodeOutage,
			Scope:    f.scope,
			Severity: 0.5,
		}})
		if err != nil {
			return nil, err
		}
	}
	return snap, nil
}

func TestRunnerDetectsInjectedOutage(t *testing.T) {
	sim, err := cdn.NewSimulator(cdn.DefaultConfig(61))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2026, 3, 2, 21, 0, 0, 0, time.UTC)
	scope := kpi.MustParseCombination(sim.Schema(), "(L3, *, *, *)")
	src := &failingSource{sim: sim, scope: scope, from: start.Add(5 * time.Minute)}

	miner := rapminer.MustNew(rapminer.DefaultConfig())
	cfg := DefaultConfig(anomaly.DefaultRelativeDeviation(), miner)
	// A single location carries only a few percent of the CDN's traffic;
	// halving it moves the aggregate by ~1%, so the production default of
	// 2% would (correctly) not alarm. Use a tighter aggregate threshold.
	cfg.AlarmThreshold = 0.005
	world, err := NewContinuous(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := StartRunner(world, src, start, time.Minute, 0 /* as fast as possible */, 12)
	if err != nil {
		t.Fatalf("StartRunner: %v", err)
	}

	var opened *Incident
	for ev := range runner.Events() {
		if ev.Kind == EventOpened {
			opened = ev.Incident
		}
	}
	if err := runner.Err(); err != nil {
		t.Fatalf("runner error: %v", err)
	}
	if opened == nil {
		t.Fatal("no incident opened over the failure window")
	}
	if len(opened.Scopes) == 0 || !opened.Scopes[0].Combo.Equal(scope) {
		t.Fatalf("incident scope = %v, want (L3, *, *, *)", opened.Scopes)
	}
	runner.Stop() // idempotent after natural exit
}

func TestRunnerStopInterruptsLoop(t *testing.T) {
	sim, err := cdn.NewSimulator(cdn.DefaultConfig(62))
	if err != nil {
		t.Fatal(err)
	}
	src := &failingSource{sim: sim, scope: kpi.NewRoot(4), from: time.Now().Add(time.Hour)}
	runner, err := StartRunner(testContinuous(t, 1), src, time.Date(2026, 3, 2, 9, 0, 0, 0, time.UTC),
		time.Minute, time.Millisecond, 0 /* unbounded */)
	if err != nil {
		t.Fatalf("StartRunner: %v", err)
	}
	// Receive a couple of events, then stop; the channel must close.
	<-runner.Events()
	runner.Stop()
	for range runner.Events() {
		// drain whatever was in flight
	}
	if err := runner.Err(); err != nil {
		t.Fatalf("runner error: %v", err)
	}
}

type brokenSource struct{ schema *kpi.Schema }

func (b *brokenSource) Schema() *kpi.Schema { return b.schema }
func (b *brokenSource) SnapshotAt(time.Time) (*kpi.Snapshot, error) {
	return nil, errors.New("source down")
}

func TestRunnerSurfacesSourceErrors(t *testing.T) {
	src := &brokenSource{schema: testSchema()}
	runner, err := StartRunner(testContinuous(t, 1), src, t0, time.Minute, 0, 3)
	if err != nil {
		t.Fatalf("StartRunner: %v", err)
	}
	for range runner.Events() {
	}
	if err := runner.Err(); err == nil {
		t.Fatal("source error not surfaced")
	}
}

func TestStartRunnerValidation(t *testing.T) {
	world := testContinuous(t, 1)
	src := &brokenSource{schema: testSchema()}
	if _, err := StartRunner(nil, src, t0, time.Minute, 0, 1); err == nil {
		t.Error("nil runner accepted")
	}
	if _, err := StartRunner(world, nil, t0, time.Minute, 0, 1); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := StartRunner(world, src, t0, 0, 0, 1); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := StartRunner(world, src, t0, time.Minute, 0, -1); err == nil {
		t.Error("negative ticks accepted")
	}
}
