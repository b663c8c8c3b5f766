// Package hotspot implements HotSpot (Sun et al., IEEE Access 2018),
// anomaly localization for additive KPIs via Monte Carlo Tree Search. The
// RAPMiner paper discusses HotSpot as the predecessor of Squeeze; it is
// built here as an extension baseline.
//
// HotSpot assumes all root causes of one anomaly live in a single cuboid
// and share the ripple effect: when a set S of attribute combinations is
// the root cause, the actual value of every leaf under S deviates from its
// forecast proportionally to the aggregate change of S. Each cuboid is
// searched with MCTS over subsets of its combinations, scored by the
// potential score
//
//	ps(S) = max(1 - sum_i |v_i - a_i| / sum_i |v_i - f_i|, 0)
//
// where a_i is the ripple-deduced value (a_i = f_i * v(S)/f(S) for leaves
// under S, a_i = f_i otherwise).
package hotspot

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/kpi"
	"repro/internal/localize"
)

// Config holds HotSpot's search budget and thresholds.
type Config struct {
	// Iterations is the MCTS budget per cuboid.
	Iterations int
	// MaxSetSize bounds the root-cause set size explored.
	MaxSetSize int
	// MaxElements bounds the per-cuboid candidate elements considered
	// (the most deviating combinations), keeping MCTS tractable on wide
	// cuboids.
	MaxElements int
	// PT is the early-stop potential score: a set scoring above PT is
	// accepted immediately (HotSpot's PT parameter).
	PT float64
	// Seed drives the rollout randomness; fixed for reproducibility.
	Seed int64
	// UCBConstant balances exploration and exploitation.
	UCBConstant float64
}

// DefaultConfig returns a budget comparable to the original paper's
// settings.
func DefaultConfig() Config {
	return Config{
		Iterations:  200,
		MaxSetSize:  5,
		MaxElements: 25,
		PT:          0.99,
		Seed:        1,
		UCBConstant: math.Sqrt2,
	}
}

// Localizer is a configured HotSpot instance.
type Localizer struct {
	cfg Config
}

var _ localize.Localizer = (*Localizer)(nil)

// New validates the configuration.
func New(cfg Config) (*Localizer, error) {
	if cfg.Iterations < 1 {
		return nil, fmt.Errorf("hotspot: Iterations %d, want >= 1", cfg.Iterations)
	}
	if cfg.MaxSetSize < 1 {
		return nil, fmt.Errorf("hotspot: MaxSetSize %d, want >= 1", cfg.MaxSetSize)
	}
	if cfg.MaxElements < 1 {
		return nil, fmt.Errorf("hotspot: MaxElements %d, want >= 1", cfg.MaxElements)
	}
	if cfg.PT <= 0 || cfg.PT > 1 {
		return nil, fmt.Errorf("hotspot: PT %v out of (0, 1]", cfg.PT)
	}
	if cfg.UCBConstant <= 0 {
		return nil, fmt.Errorf("hotspot: UCBConstant %v, want > 0", cfg.UCBConstant)
	}
	return &Localizer{cfg: cfg}, nil
}

// Name implements localize.Localizer.
func (l *Localizer) Name() string { return "HotSpot" }

// Localize implements localize.Localizer.
func (l *Localizer) Localize(snapshot *kpi.Snapshot, k int) (localize.Result, error) {
	if snapshot == nil {
		return localize.Result{}, fmt.Errorf("hotspot: nil snapshot")
	}
	if k <= 0 {
		return localize.Result{}, fmt.Errorf("hotspot: k = %d, want > 0", k)
	}

	// Total |v - f| over the dataset; nothing to explain when zero.
	var totalDev float64
	for _, leaf := range snapshot.Leaves {
		totalDev += math.Abs(leaf.Actual - leaf.Forecast)
	}
	if totalDev == 0 {
		return localize.Result{}, nil
	}

	attrs := make([]int, snapshot.Schema.NumAttributes())
	for i := range attrs {
		attrs[i] = i
	}
	rng := rand.New(rand.NewSource(l.cfg.Seed))

	best := searchOutcome{ps: math.Inf(-1)}
	for layer := 1; layer <= len(attrs); layer++ {
		for _, cuboid := range kpi.CuboidsAtLayer(attrs, layer) {
			outcome := l.searchCuboid(snapshot, cuboid, totalDev, rng)
			if outcome.ps > best.ps {
				best = outcome
			}
		}
		// HotSpot searches coarse layers first and stops as soon as a
		// sufficiently explaining set is found.
		if best.ps >= l.cfg.PT {
			break
		}
	}
	if len(best.set) == 0 {
		return localize.Result{}, nil
	}
	patterns := make([]localize.ScoredPattern, 0, len(best.set))
	for _, combo := range best.set {
		patterns = append(patterns, localize.ScoredPattern{Combo: combo, Score: best.ps})
	}
	localize.SortPatterns(patterns)
	if k < len(patterns) {
		patterns = patterns[:k]
	}
	return localize.Result{Patterns: patterns}, nil
}

type searchOutcome struct {
	set []kpi.Combination
	ps  float64
}

// element is one candidate combination of a cuboid, with the leaves of the
// dataset that fall under it.
type element struct {
	combo   kpi.Combination
	leafIdx []int
	dev     float64 // aggregate |v - f| under the combination
}

// searchCuboid runs MCTS over subsets of the cuboid's most deviating
// combinations.
func (l *Localizer) searchCuboid(snapshot *kpi.Snapshot, cuboid kpi.Cuboid, totalDev float64, rng *rand.Rand) searchOutcome {
	elements := l.cuboidElements(snapshot, cuboid)
	if len(elements) == 0 {
		return searchOutcome{ps: math.Inf(-1)}
	}

	eval := func(setBits []bool) float64 {
		return potentialScore(snapshot, elements, setBits, totalDev)
	}

	tree := newMCTS(len(elements), l.cfg.MaxSetSize, l.cfg.UCBConstant, rng)
	best := searchOutcome{ps: math.Inf(-1)}
	for it := 0; it < l.cfg.Iterations; it++ {
		setBits := tree.selectAndExpand()
		ps := eval(setBits)
		tree.backpropagate(ps)
		if ps > best.ps {
			best.ps = ps
			best.set = best.set[:0]
			for i, on := range setBits {
				if on {
					best.set = append(best.set, elements[i].combo)
				}
			}
		}
		if best.ps >= l.cfg.PT {
			break
		}
	}
	return best
}

// cuboidElements ranks the cuboid's combinations by aggregate deviation and
// keeps the strongest MaxElements, precomputing their leaf lists.
func (l *Localizer) cuboidElements(snapshot *kpi.Snapshot, cuboid kpi.Cuboid) []element {
	byKey := make(map[string]*element)
	for i, leaf := range snapshot.Leaves {
		p := leaf.Combo.Project(cuboid)
		k := p.Key()
		e, ok := byKey[k]
		if !ok {
			e = &element{combo: p}
			byKey[k] = e
		}
		e.leafIdx = append(e.leafIdx, i)
		e.dev += math.Abs(leaf.Actual - leaf.Forecast)
	}
	elements := make([]element, 0, len(byKey))
	for _, e := range byKey {
		if e.dev > 0 {
			elements = append(elements, *e)
		}
	}
	sort.SliceStable(elements, func(i, j int) bool {
		if elements[i].dev != elements[j].dev {
			return elements[i].dev > elements[j].dev
		}
		return elements[i].combo.Key() < elements[j].combo.Key()
	})
	if len(elements) > l.cfg.MaxElements {
		elements = elements[:l.cfg.MaxElements]
	}
	return elements
}

// potentialScore computes ps(S) for the element subset marked in setBits.
func potentialScore(snapshot *kpi.Snapshot, elements []element, setBits []bool, totalDev float64) float64 {
	var vS, fS float64
	inSet := make(map[int]struct{})
	// members lists S's leaves in first-seen order: the residual below is
	// summed in that fixed order, not in map order, so ps(S) has the same
	// bits on every run.
	var members []int
	for i, on := range setBits {
		if !on {
			continue
		}
		for _, li := range elements[i].leafIdx {
			if _, dup := inSet[li]; dup {
				continue
			}
			inSet[li] = struct{}{}
			members = append(members, li)
			vS += snapshot.Leaves[li].Actual
			fS += snapshot.Leaves[li].Forecast
		}
	}
	if len(members) == 0 {
		return 0
	}
	ripple := 1.0
	if fS > 0 {
		ripple = vS / fS
	}
	// residual = sum over all leaves of |v - a|; outside S, a = f, so we
	// start from totalDev and correct the in-S part.
	residual := totalDev
	for _, li := range members {
		leaf := snapshot.Leaves[li]
		residual -= math.Abs(leaf.Actual - leaf.Forecast)
		residual += math.Abs(leaf.Actual - leaf.Forecast*ripple)
	}
	ps := 1 - residual/totalDev
	if ps < 0 {
		ps = 0
	}
	return ps
}
