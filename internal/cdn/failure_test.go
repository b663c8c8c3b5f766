package cdn

import (
	"math/rand"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/kpi"
	"repro/internal/rapminer"
)

func TestFailureKindScopes(t *testing.T) {
	sim, err := NewSimulator(smallConfig(1))
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	r := rand.New(rand.NewSource(2))
	tests := []struct {
		kind FailureKind
		dims int
	}{
		{NodeOutage, 1},
		{SiteOutage, 1},
		{RegionalSiteFailure, 2},
		{AccessDegradation, 2},
		{ClientBug, 2},
	}
	for _, tt := range tests {
		t.Run(tt.kind.String(), func(t *testing.T) {
			f, err := sim.DrawFailure(r, tt.kind)
			if err != nil {
				t.Fatalf("DrawFailure: %v", err)
			}
			if got := f.Scope.Layer(); got != tt.dims {
				t.Errorf("scope dims = %d, want %d", got, tt.dims)
			}
			if f.Severity < 0.3 || f.Severity > 0.95 {
				t.Errorf("severity = %v", f.Severity)
			}
			if f.Format(sim.Schema()) == "" {
				t.Error("empty Format")
			}
		})
	}
	if _, err := sim.DrawFailure(r, FailureKind(99)); err == nil {
		t.Error("unknown kind accepted")
	}
	if FailureKind(99).String() == "" {
		t.Error("unknown kind has empty name")
	}
}

func TestApplyFailuresDropsScopedTraffic(t *testing.T) {
	sim, err := NewSimulator(smallConfig(3))
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	snap, err := sim.SnapshotAt(testTime)
	if err != nil {
		t.Fatalf("SnapshotAt: %v", err)
	}
	f := Failure{
		Kind:     NodeOutage,
		Scope:    kpi.MustParseCombination(sim.Schema(), "(L2, *, *, *)"),
		Severity: 0.5,
	}
	before := snap.Clone()
	// A built frame must not outlive the rewrite: the root sum reads it.
	snap.Columns()
	if err := ApplyFailures(snap, []Failure{f}); err != nil {
		t.Fatalf("ApplyFailures: %v", err)
	}
	var wantV float64
	for i := range snap.Leaves {
		wantV += snap.Leaves[i].Actual
	}
	if v, _ := snap.Sum(kpi.NewRoot(snap.Schema.NumAttributes())); v != wantV {
		t.Fatalf("root actual %v after the failure, want %v", v, wantV)
	}
	for i := range snap.Leaves {
		in := f.Scope.Matches(snap.Leaves[i].Combo)
		want := before.Leaves[i].Actual
		if in {
			want *= 0.5
		}
		if snap.Leaves[i].Actual != want {
			t.Fatalf("leaf %d: actual %v, want %v (in scope: %v)",
				i, snap.Leaves[i].Actual, want, in)
		}
		if snap.Leaves[i].Forecast != before.Leaves[i].Forecast {
			t.Fatal("ApplyFailures touched forecasts")
		}
	}
}

func TestApplyFailuresValidation(t *testing.T) {
	sim, err := NewSimulator(smallConfig(4))
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	snap, err := sim.SnapshotAt(testTime)
	if err != nil {
		t.Fatalf("SnapshotAt: %v", err)
	}
	bad := Failure{Scope: kpi.NewRoot(4), Severity: 1.5}
	if err := ApplyFailures(snap, []Failure{bad}); err == nil {
		t.Error("severity > 1 accepted")
	}
	badScope := Failure{Scope: kpi.NewRoot(2), Severity: 0.5}
	if err := ApplyFailures(snap, []Failure{badScope}); err == nil {
		t.Error("wrong-arity scope accepted")
	}
}

func TestScenarioScopesAreUnrelated(t *testing.T) {
	sim, err := NewSimulator(DefaultConfig(11))
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	r := rand.New(rand.NewSource(12))
	failures, err := sim.Scenario(r, NodeOutage, SiteOutage, ClientBug)
	if err != nil {
		t.Fatalf("Scenario: %v", err)
	}
	if len(failures) != 3 {
		t.Fatalf("got %d failures, want 3", len(failures))
	}
	for i := range failures {
		for j := range failures {
			if i == j {
				continue
			}
			a, b := failures[i].Scope, failures[j].Scope
			if a.Equal(b) || a.IsAncestorOf(b) {
				t.Errorf("scopes %v and %v are related", a, b)
			}
		}
	}
}

func TestScenarioEndToEndLocalization(t *testing.T) {
	// The failure catalog feeds the standard pipeline: apply a regional
	// site failure, detect, and RAPMiner recovers exactly its scope.
	sim, err := NewSimulator(DefaultConfig(21))
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	snap, err := sim.SnapshotAt(testTime)
	if err != nil {
		t.Fatalf("SnapshotAt: %v", err)
	}
	r := rand.New(rand.NewSource(22))
	failures, err := sim.Scenario(r, RegionalSiteFailure)
	if err != nil {
		t.Fatalf("Scenario: %v", err)
	}
	if err := ApplyFailures(snap, failures); err != nil {
		t.Fatalf("ApplyFailures: %v", err)
	}
	anomaly.Label(snap, anomaly.DefaultRelativeDeviation())
	miner := rapminer.MustNew(rapminer.DefaultConfig())
	res, err := miner.Localize(snap, 3)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(res.Patterns) == 0 || !res.Patterns[0].Combo.Equal(failures[0].Scope) {
		t.Fatalf("localized %s, want %s",
			res.Format(sim.Schema()), failures[0].Scope.Format(sim.Schema()))
	}
}
