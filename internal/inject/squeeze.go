package inject

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/kpi"
)

// SqueezeConfig parameterizes Squeeze-style injection: the scheme behind
// the published Squeeze semi-synthetic dataset, whose groups are labeled
// (dimension of the RAPs, number of RAPs).
type SqueezeConfig struct {
	// Dim is the dimensionality of every RAP in the case (all RAPs live
	// in one cuboid of this many attributes).
	Dim int
	// NumRAPs is the number of RAPs injected per case.
	NumRAPs int
	// MagnitudeLo/Hi bound the per-case anomaly magnitude; magnitudes
	// differ across cases (the horizontal assumption) but every
	// descendant of a case's RAPs shares the case magnitude (the
	// vertical assumption).
	MagnitudeLo, MagnitudeHi float64
	// NoiseStd adds relative Gaussian noise to the actual values of all
	// leaves; 0 is the B0 setting evaluated in the paper.
	NoiseStd float64
	// MinSupport is the minimum observed leaf count per RAP.
	MinSupport int
	// AnomalyThreshold is the relative deviation above which a leaf is
	// labeled anomalous (matching the default detector).
	AnomalyThreshold float64
}

// DefaultSqueezeConfig returns the B0 setting for the given group.
func DefaultSqueezeConfig(dim, numRAPs int) SqueezeConfig {
	return SqueezeConfig{
		Dim:         dim,
		NumRAPs:     numRAPs,
		MagnitudeLo: 0.2, MagnitudeHi: 0.9,
		NoiseStd:         0,
		MinSupport:       4,
		AnomalyThreshold: 0.095,
	}
}

// InjectSqueeze perturbs the background snapshot per the Squeeze dataset
// assumptions. The background's Forecast values are kept as the clean
// forecasts; Actual values of leaves under the RAPs drop by the case
// magnitude, all other leaves get Actual = Forecast (plus noise when
// NoiseStd > 0). Labels are assigned with the relative-deviation threshold.
func InjectSqueeze(r *rand.Rand, background *kpi.Snapshot, cfg SqueezeConfig) (Case, error) {
	n := background.Schema.NumAttributes()
	if cfg.Dim < 1 || cfg.Dim > n {
		return Case{}, fmt.Errorf("inject: squeeze Dim %d out of [1, %d]", cfg.Dim, n)
	}
	if cfg.NumRAPs < 1 {
		return Case{}, fmt.Errorf("inject: squeeze NumRAPs %d, want >= 1", cfg.NumRAPs)
	}
	if cfg.MagnitudeLo <= 0 || cfg.MagnitudeHi >= 1 || cfg.MagnitudeLo > cfg.MagnitudeHi {
		return Case{}, fmt.Errorf("inject: squeeze magnitude range [%v, %v] invalid",
			cfg.MagnitudeLo, cfg.MagnitudeHi)
	}
	if cfg.MagnitudeLo <= cfg.AnomalyThreshold {
		return Case{}, fmt.Errorf("inject: magnitude floor %v not above anomaly threshold %v",
			cfg.MagnitudeLo, cfg.AnomalyThreshold)
	}
	if background.Len() == 0 {
		return Case{}, errors.New("inject: empty background snapshot")
	}
	snap := background.Clone()

	// One cuboid for the whole case (the single-cuboid assumption).
	cuboid := make([]int, 0, cfg.Dim)
	for _, a := range r.Perm(n)[:cfg.Dim] {
		cuboid = append(cuboid, a)
	}
	raps, err := drawRAPsInCuboid(r, snap, cuboid, cfg.NumRAPs, cfg.MinSupport)
	if err != nil {
		return Case{}, err
	}

	magnitude := cfg.MagnitudeLo + (cfg.MagnitudeHi-cfg.MagnitudeLo)*r.Float64()
	snap.Rewrite(func(leaf kpi.Leaf) (float64, float64, bool) {
		actual := leaf.Forecast
		for _, rap := range raps {
			if rap.Matches(leaf.Combo) {
				// Vertical assumption: same relative drop everywhere
				// under this case's RAPs.
				actual = leaf.Forecast * (1 - magnitude)
				break
			}
		}
		if cfg.NoiseStd > 0 {
			actual *= 1 + cfg.NoiseStd*r.NormFloat64()
			if actual < 0 {
				actual = 0
			}
		}
		dev := 0.0
		if leaf.Forecast > 0 {
			dev = (leaf.Forecast - actual) / leaf.Forecast
		}
		return actual, leaf.Forecast, dev >= cfg.AnomalyThreshold || dev <= -cfg.AnomalyThreshold
	})
	return Case{Snapshot: snap, RAPs: raps}, nil
}

// drawRAPsInCuboid draws n distinct combinations of the given cuboid, each
// anchored on an observed leaf.
func drawRAPsInCuboid(r *rand.Rand, snap *kpi.Snapshot, cuboid []int, n, minSupport int) ([]kpi.Combination, error) {
	var raps []kpi.Combination
	const maxTries = 200
	for len(raps) < n {
		ok := false
		for try := 0; try < maxTries; try++ {
			seedLeaf := snap.Leaves[r.Intn(len(snap.Leaves))].Combo
			rap := seedLeaf.Project(cuboid)
			if related(rap, raps) {
				continue
			}
			if total, _ := snap.SupportCount(rap); total < minSupport {
				continue
			}
			raps = append(raps, rap)
			ok = true
			break
		}
		if !ok {
			if len(raps) > 0 {
				return raps, nil
			}
			return nil, errNoRAP
		}
	}
	return raps, nil
}
