package rapminer

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/gendata"
	"repro/internal/kpi"
)

// TestDeltaIngestedMatchesFresh is the delta-ingestion correctness bar at
// the engine level: a snapshot grown through a baseline plus a sequence of
// ticks (ApplyDelta + incremental LabelDelta, all caches warm and patched in
// place) must localize bit-identically — results AND Diagnostics — to a
// from-scratch snapshot of the same final state, at every worker count.
func TestDeltaIngestedMatchesFresh(t *testing.T) {
	spec := gendata.StreamSpec{
		Attributes: []gendata.StreamAttr{
			{Name: "region", Cardinality: 24},
			{Name: "isp", Cardinality: 8},
			{Name: "proto", Cardinality: 6},
		},
		Seed:    19,
		NumRAPs: 2,
	}
	tspec := gendata.TickSpec{TouchFraction: 0.08, FailEvery: 2, FailFor: 1}
	det := anomaly.DefaultRelativeDeviation()

	patched, err := spec.Background().StreamSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	anomaly.Label(patched, det)
	// Warm every cache so the ticks exercise the patch paths, not lazy
	// rebuilds.
	patched.Columns()
	patched.AnomalousPostings()
	for tick := 1; tick <= 5; tick++ {
		d, err := spec.TickDelta(tspec, tick)
		if err != nil {
			t.Fatal(err)
		}
		res, err := patched.ApplyDelta(d)
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		if !res.PatchedFrame || !res.PatchedLabels {
			t.Fatalf("tick %d: caches not patched in place: %+v", tick, res)
		}
		anomaly.LabelDelta(patched, det, res.Touched)
	}
	if patched.NumAnomalous() == 0 {
		t.Fatal("tick sequence left no anomalies; the pin would be vacuous")
	}

	fresh, err := kpi.NewSnapshot(patched.Schema, patched.Clone().Leaves)
	if err != nil {
		t.Fatal(err)
	}

	base, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		m := base.WithWorkers(workers)
		wantRes, wantDiag, err := m.LocalizeWithDiagnosticsContext(context.Background(), fresh, 5)
		if err != nil {
			t.Fatalf("workers %d: fresh run: %v", workers, err)
		}
		gotRes, gotDiag, err := m.LocalizeWithDiagnosticsContext(context.Background(), patched, 5)
		if err != nil {
			t.Fatalf("workers %d: patched run: %v", workers, err)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("workers %d: results diverge\n got %+v\nwant %+v", workers, gotRes, wantRes)
		}
		if !reflect.DeepEqual(gotDiag, wantDiag) {
			t.Errorf("workers %d: diagnostics diverge\n got %+v\nwant %+v", workers, gotDiag, wantDiag)
		}
	}
}
