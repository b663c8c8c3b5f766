// Package inject builds semi-synthetic failure cases by injecting root
// anomaly patterns into background KPI snapshots, implementing both
// injection schemes of the RAPMiner paper's evaluation (Section V-A):
//
//   - RAPMD-style injection (Randomness 1 and 2): 1-3 RAPs of arbitrary,
//     possibly different dimensions; each most fine-grained descendant of a
//     RAP gets its own relative deviation Dev drawn from [0.1, 0.9], normal
//     leaves get Dev in [-0.02, 0.09], and forecasts are derived via Eq. 5.
//   - Squeeze-style injection: all RAPs of one case live in a single cuboid
//     (HotSpot/Squeeze assumption), every descendant of a case's RAPs takes
//     the same anomaly magnitude (vertical assumption), and magnitudes vary
//     across cases (horizontal assumption). The B0 setting adds no forecast
//     noise.
package inject

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/kpi"
)

// Case is one injected failure: the perturbed snapshot plus the ground
// truth root anomaly patterns.
type Case struct {
	Snapshot *kpi.Snapshot
	RAPs     []kpi.Combination
}

// RAPMDConfig parameterizes RAPMD-style injection. Zero values are replaced
// by the paper's parameters.
type RAPMDConfig struct {
	// MinRAPs and MaxRAPs bound the number of RAPs per case
	// (paper: [1, 3]).
	MinRAPs, MaxRAPs int
	// MaxDim bounds each RAP's dimensionality (paper: any dimension; the
	// examples use 1-3, and a RAP spanning every attribute would be a
	// single leaf). 0 means number-of-attributes - 1.
	MaxDim int
	// AnomDevLo/Hi is the anomalous leaf deviation range (paper: [0.1, 0.9]).
	AnomDevLo, AnomDevHi float64
	// NormDevLo/Hi is the normal leaf deviation range (paper: [-0.02, 0.09]).
	NormDevLo, NormDevHi float64
	// Eps is the epsilon of Eq. 4/5.
	Eps float64
	// MinSupport is the minimum number of observed leaf descendants a
	// chosen RAP must have, so ground truth is never an empty scope.
	MinSupport int
	// MaxSupportShare caps a RAP's scope as a fraction of all observed
	// leaves. The paper injects RAPs "referring to the real-world root
	// anomaly patterns": a realistic failure hits a location, a website
	// or a combination — not, say, every Android user of the whole CDN
	// at once. 0 disables the cap.
	MaxSupportShare float64
	// MaxScaleGap bounds the support ratio between the largest and the
	// smallest RAP of one case. Real co-occurring failure patterns have
	// comparable blast radii; without this bound a dominant RAP washes
	// out the classification power of the attributes that only appear
	// in a tiny co-injected RAP, which no threshold-based method can
	// recover. 0 disables the bound.
	MaxScaleGap float64
	// FalsePositiveRate and FalseNegativeRate flip a fraction of the
	// leaf labels after injection, modeling imperfect anomaly detection
	// (the miner input is "anomaly detection results", not ground
	// truth). The paper's own injection keeps the anomalous and normal
	// deviation ranges separable, so its detector makes no false
	// negatives; false positives model the paper's observation that
	// sparse fine-grained KPIs "fail to show the statistical
	// characteristic".
	FalsePositiveRate, FalseNegativeRate float64
	// AttrReuseProb is the probability that a subsequent RAP of the same
	// case constrains the same attribute set as the previous one (with
	// different elements). Real co-occurring patterns often share a
	// shape — one website failing at several locations — while the
	// paper's Randomness 1 still requires that dimensions "are not
	// necessary to be the same", which the remaining probability mass
	// provides.
	AttrReuseProb float64
}

// DefaultRAPMDConfig returns the paper's injection parameters.
func DefaultRAPMDConfig() RAPMDConfig {
	return RAPMDConfig{
		MinRAPs:   1,
		MaxRAPs:   3,
		MaxDim:    3,
		AnomDevLo: 0.1, AnomDevHi: 0.9,
		NormDevLo: -0.02, NormDevHi: 0.09,
		Eps:               1e-6,
		MinSupport:        4,
		MaxSupportShare:   0.1,
		MaxScaleGap:       6,
		FalsePositiveRate: 0.005,
		FalseNegativeRate: 0,
		AttrReuseProb:     0.6,
	}
}

var errNoRAP = errors.New("inject: could not draw a RAP with enough support")

// InjectRAPMD perturbs the background snapshot in place semantics-free (the
// input is cloned) per the RAPMD procedure: the snapshot's Actual values
// are kept as the observed truth v, and Forecast values are re-derived from
// per-leaf deviations via Eq. 5, f = (v + Dev*eps) / (1 - Dev). Anomaly
// labels are set to the ground truth (Dev >= AnomDevLo), matching the
// paper's use of detection results as the miner input.
func InjectRAPMD(r *rand.Rand, background *kpi.Snapshot, cfg RAPMDConfig) (Case, error) {
	if err := validateRAPMD(cfg, background.Schema.NumAttributes()); err != nil {
		return Case{}, err
	}
	if background.Len() == 0 {
		return Case{}, errors.New("inject: empty background snapshot")
	}
	snap := background.Clone()

	raps, err := DrawCaseRAPs(r, snap, cfg)
	if err != nil {
		return Case{}, err
	}

	snap.Rewrite(func(leaf kpi.Leaf) (float64, float64, bool) {
		anomalous := false
		for _, rap := range raps {
			if rap.Matches(leaf.Combo) {
				anomalous = true
				break
			}
		}
		var dev float64
		if anomalous {
			dev = cfg.AnomDevLo + (cfg.AnomDevHi-cfg.AnomDevLo)*r.Float64()
		} else {
			dev = cfg.NormDevLo + (cfg.NormDevHi-cfg.NormDevLo)*r.Float64()
		}
		// Eq. 5: f = (v + Dev*eps) / (1 - Dev), so that Eq. 4 yields
		// Dev = (f - v) / (f + eps).
		forecast := (leaf.Actual + dev*cfg.Eps) / (1 - dev)
		// Detector imperfection: occasional false alarms on normal
		// leaves and missed detections under the RAPs.
		switch {
		case anomalous && r.Float64() < cfg.FalseNegativeRate:
			anomalous = false
		case !anomalous && r.Float64() < cfg.FalsePositiveRate:
			anomalous = true
		}
		return leaf.Actual, forecast, anomalous
	})
	return Case{Snapshot: snap, RAPs: raps}, nil
}

func validateRAPMD(cfg RAPMDConfig, nAttrs int) error {
	if cfg.MinRAPs < 1 || cfg.MaxRAPs < cfg.MinRAPs {
		return fmt.Errorf("inject: RAP count range [%d, %d] invalid", cfg.MinRAPs, cfg.MaxRAPs)
	}
	if cfg.MaxDim < 1 || cfg.MaxDim > nAttrs {
		return fmt.Errorf("inject: MaxDim %d out of [1, %d]", cfg.MaxDim, nAttrs)
	}
	if cfg.AnomDevLo <= cfg.NormDevHi {
		return fmt.Errorf("inject: anomalous range [%v, %v] overlaps normal range ending %v",
			cfg.AnomDevLo, cfg.AnomDevHi, cfg.NormDevHi)
	}
	if cfg.AnomDevHi >= 1 {
		return fmt.Errorf("inject: AnomDevHi %v must stay below 1 (Eq. 5 divides by 1-Dev)", cfg.AnomDevHi)
	}
	if cfg.NormDevLo > cfg.NormDevHi || cfg.AnomDevLo > cfg.AnomDevHi {
		return errors.New("inject: inverted deviation range")
	}
	if cfg.MinSupport < 1 {
		return errors.New("inject: MinSupport must be >= 1")
	}
	if cfg.MaxSupportShare < 0 || cfg.MaxSupportShare > 1 {
		return fmt.Errorf("inject: MaxSupportShare %v out of [0, 1]", cfg.MaxSupportShare)
	}
	if cfg.MaxScaleGap < 0 || (cfg.MaxScaleGap > 0 && cfg.MaxScaleGap < 1) {
		return fmt.Errorf("inject: MaxScaleGap %v, want 0 or >= 1", cfg.MaxScaleGap)
	}
	if bad := func(r float64) bool { return r < 0 || r >= 0.5 }; bad(cfg.FalsePositiveRate) || bad(cfg.FalseNegativeRate) {
		return fmt.Errorf("inject: label noise rates (%v, %v) out of [0, 0.5)",
			cfg.FalsePositiveRate, cfg.FalseNegativeRate)
	}
	if cfg.AttrReuseProb < 0 || cfg.AttrReuseProb > 1 {
		return fmt.Errorf("inject: AttrReuseProb %v out of [0, 1]", cfg.AttrReuseProb)
	}
	return nil
}

// DrawCaseRAPs draws one case's RAP set against the snapshot per the
// Randomness 1 parameters of cfg: a random count in [MinRAPs, MaxRAPs],
// random dimensions up to MaxDim, and the support/scale bounds. The RAPs
// are pairwise unrelated (no ancestor pairs). Exposed so alternative
// injection schemes — e.g. the derived-KPI corpus — can share the drawing
// logic.
func DrawCaseRAPs(r *rand.Rand, snap *kpi.Snapshot, cfg RAPMDConfig) ([]kpi.Combination, error) {
	if err := validateRAPMD(cfg, snap.Schema.NumAttributes()); err != nil {
		return nil, err
	}
	if snap.Len() == 0 {
		return nil, errors.New("inject: empty snapshot")
	}
	nRAPs := cfg.MinRAPs + r.Intn(cfg.MaxRAPs-cfg.MinRAPs+1)
	maxSupport := snap.Len()
	if cfg.MaxSupportShare > 0 {
		maxSupport = int(cfg.MaxSupportShare * float64(snap.Len()))
		if maxSupport < cfg.MinSupport {
			maxSupport = cfg.MinSupport
		}
	}
	return drawRAPs(r, snap, nRAPs, cfg, maxSupport)
}

// drawRAPs picks n distinct RAPs with adequate support such that no RAP is
// an ancestor of another (otherwise ground truth would be ambiguous under
// Definition 1) and, when MaxScaleGap is set, all RAPs of the case have
// supports within that ratio of each other.
func drawRAPs(r *rand.Rand, snap *kpi.Snapshot, n int, cfg RAPMDConfig, maxSupport int) ([]kpi.Combination, error) {
	schema := snap.Schema
	var (
		raps     []kpi.Combination
		supports []int
	)
	const maxTries = 200
	for len(raps) < n {
		ok := false
		for try := 0; try < maxTries; try++ {
			// Anchor the RAP on a random observed leaf so it always has
			// support in sparse snapshots.
			seedLeaf := snap.Leaves[r.Intn(len(snap.Leaves))].Combo
			rap := kpi.NewRoot(schema.NumAttributes())
			if len(raps) > 0 && r.Float64() < cfg.AttrReuseProb {
				// Same shape as the previous RAP, new elements.
				for _, a := range raps[len(raps)-1].Attrs() {
					rap[a] = seedLeaf[a]
				}
			} else {
				dim := 1 + r.Intn(cfg.MaxDim)
				perm := r.Perm(schema.NumAttributes())
				for _, a := range perm[:dim] {
					rap[a] = seedLeaf[a]
				}
			}
			if related(rap, raps) {
				continue
			}
			total, _ := snap.SupportCount(rap)
			if total < cfg.MinSupport || total > maxSupport {
				continue
			}
			if cfg.MaxScaleGap > 0 && !scaleCompatible(total, supports, cfg.MaxScaleGap) {
				continue
			}
			raps = append(raps, rap)
			supports = append(supports, total)
			ok = true
			break
		}
		if !ok {
			if len(raps) > 0 {
				return raps, nil // settle for fewer RAPs than drawn
			}
			return nil, errNoRAP
		}
	}
	return raps, nil
}

// scaleCompatible reports whether a new RAP support keeps the case's
// largest-to-smallest support ratio within gap.
func scaleCompatible(total int, supports []int, gap float64) bool {
	for _, s := range supports {
		lo, hi := total, s
		if lo > hi {
			lo, hi = hi, lo
		}
		if float64(hi) > gap*float64(lo) {
			return false
		}
	}
	return true
}

// related reports whether c duplicates or is ordered (ancestor/descendant)
// with any existing RAP.
func related(c kpi.Combination, raps []kpi.Combination) bool {
	for _, r := range raps {
		if r.Equal(c) || r.IsAncestorOf(c) || c.IsAncestorOf(r) {
			return true
		}
	}
	return false
}
