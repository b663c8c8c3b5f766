package gendata

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cdn"
	"repro/internal/inject"
	"repro/internal/kpi"
)

// RAPMDDerived generates failure cases on a *derived* KPI: the cache hit
// ratio. Cache failures drop the hit counts of the leaves under each RAP
// while request volumes stay flat, so only the non-additive ratio exposes
// the failure. The paper argues RAPMiner needs no special handling for
// derived KPIs because it consumes only leaf anomaly labels (Section
// IV-B); this corpus lets the harness measure that claim against the
// value-based baselines.
func RAPMDDerived(seed int64, nCases int) (*Corpus, error) {
	if nCases < 1 {
		return nil, fmt.Errorf("gendata: nCases %d, want >= 1", nCases)
	}
	cfg := cdn.DefaultConfig(seed)
	sim, err := cdn.NewSimulator(cfg)
	if err != nil {
		return nil, fmt.Errorf("gendata: simulator: %w", err)
	}
	injectCfg := inject.DefaultRAPMDConfig()

	corpus := &Corpus{
		Name:   "RAPMD-hitratio",
		Schema: sim.Schema(),
		Cases:  make([]inject.Case, 0, nCases),
	}
	for i := 0; i < nCases; i++ {
		// Each case draws from its own seeded stream so case i is a
		// pure function of (seed, i), not of generation order.
		r := rand.New(rand.NewSource(caseSeed(seed+2, i)))
		minute := r.Intn(RAPMDDays * 24 * 60)
		ts := RAPMDStart.Add(time.Duration(minute) * time.Minute)
		c, err := derivedCase(sim, cfg, r, ts, injectCfg)
		if err != nil {
			return nil, fmt.Errorf("gendata: derived case %d: %w", i, err)
		}
		corpus.Cases = append(corpus.Cases, c)
	}
	return corpus, nil
}

// derivedCase builds one hit-ratio failure case.
func derivedCase(sim *cdn.Simulator, cfg cdn.Config, r *rand.Rand, ts time.Time, injectCfg inject.RAPMDConfig) (inject.Case, error) {
	table, err := sim.TableAt(ts)
	if err != nil {
		return inject.Case{}, err
	}
	// The healthy ratio snapshot: forecast = configured hit ratio,
	// actual = simulated per-leaf ratio. Draw the RAPs against it so
	// support constraints hold.
	hits, _ := table.Column("hits")
	requests, _ := table.Column("requests")
	leaves := make([]kpi.Leaf, table.Len())
	for i := range leaves {
		ratio := 0.0
		if requests[i] > 0 {
			ratio = hits[i] / requests[i]
		}
		leaves[i] = kpi.Leaf{
			Combo:    table.Combos[i],
			Actual:   ratio,
			Forecast: cfg.CacheHitRatio,
		}
	}
	snap, err := kpi.NewSnapshot(sim.Schema(), leaves)
	if err != nil {
		return inject.Case{}, err
	}

	raps, err := inject.DrawCaseRAPs(r, snap, injectCfg)
	if err != nil {
		return inject.Case{}, err
	}

	// Cache failure: the hit ratio under each RAP collapses by a
	// per-leaf random severity in [0.2, 0.9]; requests are untouched.
	const detectThreshold = 0.1
	snap.Rewrite(func(leaf kpi.Leaf) (float64, float64, bool) {
		for _, rap := range raps {
			if rap.Matches(leaf.Combo) {
				severity := 0.2 + 0.7*r.Float64()
				leaf.Actual *= 1 - severity
				break
			}
		}
		dev := 0.0
		if leaf.Forecast > 0 {
			dev = (leaf.Forecast - leaf.Actual) / leaf.Forecast
		}
		return leaf.Actual, leaf.Forecast, dev >= detectThreshold
	})
	return inject.Case{Snapshot: snap, RAPs: raps}, nil
}
