package rapminer

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/gendata"
	"repro/internal/kpi"
	"repro/internal/localize"
)

// TestRollupEngineMatchesFused pins the roll-up's cost model: on dense
// corpora, at every worker count, the whole search costs ONE pass over the
// leaf store and every layer's cuboids are rolled up from the base without
// leaf reads. TestMinerMatchesOracle checks the same runs' results.
func TestRollupEngineMatchesFused(t *testing.T) {
	corpus, err := gendata.RAPMD(17, 6)
	if err != nil {
		t.Fatal(err)
	}
	snapshots := make([]*kpi.Snapshot, 0, len(corpus.Cases)+1)
	for _, c := range corpus.Cases {
		snapshots = append(snapshots, c.Snapshot)
	}
	snapshots = append(snapshots, benchCase(t))

	base := MustNew(DefaultConfig())
	for si, snap := range snapshots {
		for _, workers := range []int{1, 2, 4, 8} {
			_, diag, err := base.WithWorkers(workers).LocalizeWithDiagnosticsContext(context.Background(), snap, 10)
			if err != nil {
				t.Fatalf("case %d workers %d: %v", si, workers, err)
			}
			passes := 0
			for _, l := range diag.Layers {
				passes += l.ScanPasses
			}
			if passes > 1 {
				t.Errorf("case %d workers %d: %d leaf passes, want <= 1", si, workers, passes)
			}
			if len(diag.KeptAttributes) >= 2 {
				for _, l := range diag.Layers {
					if l.RollupServed != l.Cuboids || l.FusedCuboids != 0 {
						t.Errorf("case %d workers %d layer %d: %d of %d cuboids rolled up, %d scanned, want all rolled up",
							si, workers, l.Layer, l.RollupServed, l.Cuboids, l.FusedCuboids)
					}
				}
			}
		}
	}
}

// TestRollupCountedCutoffMatchesFused pins the degraded semantics whether
// the cut-off cuboids were rolled up (benchCase) or scanned (the sparse
// world): a context that ends after n safe-point reads cuts the run off
// after n+1 cuboids with identical partial results at any worker count.
func TestRollupCountedCutoffMatchesFused(t *testing.T) {
	const n = 2
	m := MustNew(DefaultConfig())
	sparse := worldSnapshot(t, 3, []int{20, 16, 12, 10, 8, 6}, 0.015, 2, 2)
	for name, snap := range map[string]*kpi.Snapshot{"bench": benchCase(t), "sparse": sparse} {
		var want Diagnostics
		for i, workers := range []int{1, 2, 4, 8} {
			res, diag, err := m.WithWorkers(workers).LocalizeWithDiagnosticsContext(newCountedCtx(n), snap, 10)
			if err != nil {
				t.Fatalf("%s workers %d: %v", name, workers, err)
			}
			if !res.Degraded || res.DegradedReason != localize.DegradedCanceled {
				t.Fatalf("%s workers %d: degraded = %v (%q), want a canceled cut-off",
					name, workers, res.Degraded, res.DegradedReason)
			}
			if diag.CuboidsVisited != n+1 {
				t.Fatalf("%s workers %d: visited %d cuboids, want %d",
					name, workers, diag.CuboidsVisited, n+1)
			}
			if i == 0 {
				want = diag
				continue
			}
			if !reflect.DeepEqual(diag, want) {
				t.Errorf("%s workers %d: cut-off diagnostics diverge from workers=1", name, workers)
			}
		}
		scanned := 0
		for _, l := range want.Layers {
			scanned += l.FusedCuboids
		}
		if (name == "sparse") != (scanned > 0) {
			t.Errorf("%s: %d of the cut-off cuboids scanned", name, scanned)
		}
	}
}

// TestRollupPreCanceledContext pins the degraded first-cuboid guarantee
// with roll-up enabled: an already-canceled context still merges exactly
// one cuboid, identically at every worker count.
func TestRollupPreCanceledContext(t *testing.T) {
	snap := benchCase(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := MustNew(DefaultConfig())
	var want Diagnostics
	for i, workers := range []int{1, 4, 8} {
		res, diag, err := m.WithWorkers(workers).LocalizeWithDiagnosticsContext(ctx, snap, 10)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !res.Degraded || diag.CuboidsVisited != 1 {
			t.Fatalf("workers %d: degraded=%v visited=%d, want the single guaranteed cuboid",
				workers, res.Degraded, diag.CuboidsVisited)
		}
		if i == 0 {
			want = diag
			continue
		}
		if !reflect.DeepEqual(diag, want) {
			t.Errorf("workers %d: pre-canceled diagnostics diverge from workers=1", workers)
		}
	}
}
