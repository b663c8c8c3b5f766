package inject

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/kpi"
)

// NoiseConfig describes the PSqueeze-style robustness perturbations
// ("Generic and Robust Root Cause Localization for Multi-Dimensional Data
// in Online Service Systems", Section V) applied on top of an injected
// case. It composes with both injection schemes: inject first (RAPMD or
// Squeeze), then ApplyNoise degrades the case while the ground-truth RAPs
// stay fixed — robustness is measured as localization quality against the
// original truth under the degraded observation.
//
// The zero value is the identity: no noise, no imbalance, no dropout.
type NoiseConfig struct {
	// ForecastStd adds relative Gaussian noise to every leaf's forecast,
	// f' = f * (1 + N(0, ForecastStd)), modeling an imperfect predictor.
	// PSqueeze's F-corpora sweep this axis.
	ForecastStd float64
	// Imbalance shrinks the anomaly magnitude of every co-injected RAP
	// after the first by an independent factor drawn from
	// [1-Imbalance, 1]: a' = f + (a - f) * s. Both existing schemes give
	// one case's RAPs comparable deviations; real co-occurring failures
	// do not, and threshold-partition methods lose the weak RAP first.
	Imbalance float64
	// Dropout removes each leaf independently with this probability,
	// modeling missing fine-grained records (sparse KPIs are the
	// paper's motivating CDN pathology). Every RAP is guaranteed to
	// keep at least one observed descendant so ground truth never
	// becomes an empty scope.
	Dropout float64
	// RelabelThreshold re-runs the relative-deviation detector after the
	// perturbations so labels reflect what a detector would now see:
	// |f - a| / (|f| + Eps) >= RelabelThreshold. 0 keeps the original
	// labels.
	RelabelThreshold float64
	// Eps guards the relabel division. 0 means 1e-6.
	Eps float64
}

// IsZero reports whether the config is the identity perturbation.
func (c NoiseConfig) IsZero() bool {
	return c.ForecastStd == 0 && c.Imbalance == 0 && c.Dropout == 0 && c.RelabelThreshold == 0
}

func (c NoiseConfig) validate() error {
	if c.ForecastStd < 0 || c.ForecastStd > 1 {
		return fmt.Errorf("inject: ForecastStd %v out of [0, 1]", c.ForecastStd)
	}
	if c.Imbalance < 0 || c.Imbalance >= 1 {
		return fmt.Errorf("inject: Imbalance %v out of [0, 1)", c.Imbalance)
	}
	if c.Dropout < 0 || c.Dropout > 0.9 {
		return fmt.Errorf("inject: Dropout %v out of [0, 0.9]", c.Dropout)
	}
	if c.RelabelThreshold < 0 || c.RelabelThreshold >= 1 {
		return fmt.Errorf("inject: RelabelThreshold %v out of [0, 1)", c.RelabelThreshold)
	}
	if c.Eps < 0 {
		return fmt.Errorf("inject: Eps %v negative", c.Eps)
	}
	return nil
}

// ApplyNoise returns a degraded copy of the case (the input is never
// mutated): magnitude imbalance first, then forecast noise, then optional
// relabeling, then leaf dropout. The draw sequence is a fixed function of
// the config and the case shape, so a caller seeding r per case keeps
// corpora reproducible.
func ApplyNoise(r *rand.Rand, c Case, cfg NoiseConfig) (Case, error) {
	if err := cfg.validate(); err != nil {
		return Case{}, err
	}
	if c.Snapshot == nil {
		return Case{}, errors.New("inject: ApplyNoise on nil snapshot")
	}
	if cfg.IsZero() {
		return c, nil
	}
	eps := cfg.Eps
	if eps == 0 {
		eps = 1e-6
	}
	snap := c.Snapshot.Clone()

	// Magnitude imbalance: the first RAP keeps its injected magnitude,
	// every later RAP's deviation shrinks by an independent factor. A
	// leaf under several RAPs follows the first match, like both
	// injection schemes do.
	if cfg.Imbalance > 0 && len(c.RAPs) > 1 {
		scale := make([]float64, len(c.RAPs))
		scale[0] = 1
		for j := 1; j < len(scale); j++ {
			scale[j] = 1 - cfg.Imbalance*r.Float64()
		}
		snap.Rewrite(func(leaf kpi.Leaf) (float64, float64, bool) {
			for j, rap := range c.RAPs {
				if rap.Matches(leaf.Combo) {
					if scale[j] != 1 {
						leaf.Actual = leaf.Forecast + (leaf.Actual-leaf.Forecast)*scale[j]
					}
					break
				}
			}
			return leaf.Actual, leaf.Forecast, leaf.Anomalous
		})
	}

	if cfg.ForecastStd > 0 {
		snap.Rewrite(func(leaf kpi.Leaf) (float64, float64, bool) {
			forecast := leaf.Forecast * (1 + cfg.ForecastStd*r.NormFloat64())
			if forecast < 0 {
				forecast = 0
			}
			return leaf.Actual, forecast, leaf.Anomalous
		})
	}

	if cfg.RelabelThreshold > 0 {
		snap.Relabel(func(actual, forecast float64) bool {
			return math.Abs(forecast-actual)/(math.Abs(forecast)+eps) >= cfg.RelabelThreshold
		})
	}

	if cfg.Dropout > 0 {
		kept := dropLeaves(r, snap.Leaves, c.RAPs, cfg.Dropout)
		rebuilt, err := kpi.NewSnapshot(snap.Schema, kept)
		if err != nil {
			return Case{}, fmt.Errorf("inject: rebuilding after dropout: %w", err)
		}
		snap = rebuilt
	}

	return Case{Snapshot: snap, RAPs: c.RAPs}, nil
}

// dropLeaves removes leaves with probability p but keeps ground truth
// non-degenerate: every RAP retains at least one observed descendant, and
// the snapshot at least one leaf. The resurrection picks each starved
// RAP's first matching leaf in snapshot order, independent of the drop
// draws, so the guard is deterministic given the draw sequence.
func dropLeaves(r *rand.Rand, leaves []kpi.Leaf, raps []kpi.Combination, p float64) []kpi.Leaf {
	drop := make([]bool, len(leaves))
	for i := range leaves {
		drop[i] = r.Float64() < p
	}
	for _, rap := range raps {
		alive := false
		first := -1
		for i := range leaves {
			if !rap.Matches(leaves[i].Combo) {
				continue
			}
			if first < 0 {
				first = i
			}
			if !drop[i] {
				alive = true
				break
			}
		}
		if !alive && first >= 0 {
			drop[first] = false
		}
	}
	kept := make([]kpi.Leaf, 0, len(leaves))
	for i := range leaves {
		if !drop[i] {
			kept = append(kept, leaves[i])
		}
	}
	if len(kept) == 0 && len(leaves) > 0 {
		kept = append(kept, leaves[0])
	}
	return kept
}
