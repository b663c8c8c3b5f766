package cdn

import (
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/kpi"
	"repro/internal/rapminer"
)

// TestDerivedKPILocalization exercises the paper's genericity claim
// (Section IV-B): RAPMiner consumes only leaf anomaly labels, so a
// non-additive derived KPI — cache hit ratio — localizes exactly like a
// fundamental one, with no special handling. A cache failure at one
// location drops hits while requests stay flat, so only the derived ratio
// exposes it.
func TestDerivedKPILocalization(t *testing.T) {
	cfg := DefaultConfig(41)
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	ts := time.Date(2026, 2, 12, 20, 0, 0, 0, time.UTC)
	table, err := sim.TableAt(ts)
	if err != nil {
		t.Fatalf("TableAt: %v", err)
	}

	// Cache failure: hits collapse to 30% at location L9, requests
	// unchanged.
	scope := kpi.MustParseCombination(sim.Schema(), "(L9, *, *, *)")
	hits, _ := table.Column("hits")
	for i, combo := range table.Combos {
		if scope.Matches(combo) {
			hits[i] *= 0.3
		}
	}
	if err := table.Derive("hit_ratio", []string{"hits", "requests"}, func(v []float64) float64 {
		if v[1] == 0 {
			return 0
		}
		return v[0] / v[1]
	}); err != nil {
		t.Fatalf("Derive: %v", err)
	}

	// Build the localization snapshot on the derived KPI: actual = the
	// observed hit ratio, forecast = the configured healthy ratio.
	ratio, _ := table.Column("hit_ratio")
	leaves := make([]kpi.Leaf, table.Len())
	for i := range leaves {
		leaves[i] = kpi.Leaf{
			Combo:    table.Combos[i],
			Actual:   ratio[i],
			Forecast: cfg.CacheHitRatio,
		}
	}
	snap, err := kpi.NewSnapshot(sim.Schema(), leaves)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}

	anomaly.Label(snap, anomaly.RelativeDeviation{Threshold: 0.3, Eps: 1e-9})
	miner := rapminer.MustNew(rapminer.DefaultConfig())
	res, err := miner.Localize(snap, 3)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(res.Patterns) == 0 || !res.Patterns[0].Combo.Equal(scope) {
		t.Fatalf("derived-KPI localization got:\n%swant %s",
			res.Format(sim.Schema()), scope.Format(sim.Schema()))
	}
}
