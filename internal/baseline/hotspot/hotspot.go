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
//
// Its safe point is the MCTS iteration: a run whose context ends stops
// before the next iteration and answers with the best set found so far.
package hotspot

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"

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
	return l.LocalizeContext(context.Background(), snapshot, k)
}

// LocalizeContext implements localize.Localizer. Once ctx ends, the search
// stops before its next MCTS iteration.
func (l *Localizer) LocalizeContext(ctx context.Context, snapshot *kpi.Snapshot, k int) (localize.Result, error) {
	if snapshot == nil {
		return localize.Result{}, fmt.Errorf("hotspot: nil snapshot")
	}
	if k <= 0 {
		return localize.Result{}, fmt.Errorf("hotspot: k = %d, want > 0", k)
	}

	// Total |v - f| over the dataset; nothing to explain when zero.
	r := newRun(snapshot)
	if r.totalDev == 0 {
		return localize.Result{}, nil
	}

	attrs := make([]int, snapshot.Schema.NumAttributes())
	for i := range attrs {
		attrs[i] = i
	}
	rng := rand.New(rand.NewSource(l.cfg.Seed))

	best := searchOutcome{ps: math.Inf(-1)}
	poll := localize.NewPoll(ctx)
search:
	for layer := 1; layer <= len(attrs); layer++ {
		for _, cuboid := range kpi.CuboidsAtLayer(attrs, layer) {
			outcome := l.searchCuboid(r, cuboid, rng, poll)
			if outcome.ps > best.ps {
				best = outcome
			}
			if poll.Reason != "" {
				break search
			}
		}
		// HotSpot searches coarse layers first and stops as soon as a
		// sufficiently explaining set is found.
		if best.ps >= l.cfg.PT {
			break
		}
	}
	if len(best.set) == 0 {
		return poll.Result(nil), nil
	}
	patterns := make([]localize.ScoredPattern, 0, len(best.set))
	for _, combo := range best.set {
		patterns = append(patterns, localize.ScoredPattern{Combo: combo, Score: best.ps})
	}
	localize.SortPatterns(patterns)
	if k < len(patterns) {
		patterns = patterns[:k]
	}
	return poll.Result(patterns), nil
}

type searchOutcome struct {
	set []kpi.Combination
	ps  float64
}

// run is one search's per-leaf state, shared by every cuboid.
type run struct {
	snapshot         *kpi.Snapshot
	actual, forecast []float64
	// dev holds each leaf's |v - f|; totalDev is their sum in leaf order.
	dev      []float64
	totalDev float64
	// stamp marks the leaves of S in potentialScore: leaf i is in S when
	// stamp[i] equals epoch, which every call bumps.
	stamp []uint32
	epoch uint32
	// members lists S's leaves in first-seen order.
	members []int32
	// groups numbers the current cuboid's groups, reused across cuboids.
	groups kpi.Grouping
}

func newRun(snapshot *kpi.Snapshot) *run {
	cols := snapshot.Columns()
	r := &run{
		snapshot: snapshot,
		actual:   cols.Actual(),
		forecast: cols.Forecast(),
		dev:      make([]float64, cols.Len()),
		stamp:    make([]uint32, cols.Len()),
	}
	for i := range r.dev {
		r.dev[i] = math.Abs(r.actual[i] - r.forecast[i])
		r.totalDev += r.dev[i]
	}
	return r
}

// element is one candidate combination of a cuboid, with the leaves of the
// dataset that fall under it.
type element struct {
	combo   kpi.Combination
	leafIdx []int32 // ascending
	dev     float64 // aggregate |v - f| under the combination
	group   int32
}

// searchCuboid runs MCTS over subsets of the cuboid's most deviating
// combinations, polling before each iteration.
func (l *Localizer) searchCuboid(r *run, cuboid kpi.Cuboid, rng *rand.Rand, poll *localize.Poll) searchOutcome {
	elements := l.cuboidElements(r, cuboid)
	if len(elements) == 0 {
		return searchOutcome{ps: math.Inf(-1)}
	}

	tree := newMCTS(len(elements), l.cfg.MaxSetSize, l.cfg.UCBConstant, rng)
	best := searchOutcome{ps: math.Inf(-1)}
	for it := 0; it < l.cfg.Iterations && !poll.Stop(); it++ {
		setBits := tree.selectAndExpand()
		ps := r.potentialScore(elements, setBits)
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
// keeps the strongest MaxElements, listing the leaves of those only. Each
// group's deviation adds its leaves' dev in ascending leaf order, and ties
// break on Combination.Key order.
func (l *Localizer) cuboidElements(r *run, cuboid kpi.Cuboid) []element {
	ix := r.snapshot.Indexer(cuboid)
	r.snapshot.Group(ix, &r.groups, nil)
	of, names := r.groups.Of, r.groups.Names
	devs := make([]float64, len(names))
	for i, g := range of {
		devs[g] += r.dev[i]
	}
	var elements []element
	for g, d := range devs {
		if d > 0 {
			combo := make(kpi.Combination, r.snapshot.Schema.NumAttributes())
			r.snapshot.DecodeGroup(ix, names[g], combo)
			elements = append(elements, element{combo: combo, dev: d, group: int32(g)})
		}
	}
	slices.SortFunc(elements, func(a, b element) int {
		if a.dev != b.dev {
			return cmp.Compare(b.dev, a.dev)
		}
		return a.combo.CompareKey(b.combo)
	})
	if len(elements) > l.cfg.MaxElements {
		elements = elements[:l.cfg.MaxElements]
	}
	// slot[g] is 1 + the position of group g's element, or 0.
	slot := make([]int32, len(names))
	for j, e := range elements {
		slot[e.group] = int32(j) + 1
	}
	for i, g := range of {
		if j := slot[g]; j > 0 {
			elements[j-1].leafIdx = append(elements[j-1].leafIdx, int32(i))
		}
	}
	return elements
}

// potentialScore computes ps(S) for the element subset marked in setBits.
func (r *run) potentialScore(elements []element, setBits []bool) float64 {
	var vS, fS float64
	r.epoch++
	// members lists S's leaves in first-seen order: the residual below is
	// summed in that fixed order, so ps(S) has the same bits on every run.
	r.members = r.members[:0]
	for i, on := range setBits {
		if !on {
			continue
		}
		for _, li := range elements[i].leafIdx {
			if r.stamp[li] == r.epoch {
				continue
			}
			r.stamp[li] = r.epoch
			r.members = append(r.members, li)
			vS += r.actual[li]
			fS += r.forecast[li]
		}
	}
	if len(r.members) == 0 {
		return 0
	}
	ripple := 1.0
	if fS > 0 {
		ripple = vS / fS
	}
	// residual = sum over all leaves of |v - a|; outside S, a = f, so we
	// start from totalDev and correct the in-S part.
	residual := r.totalDev
	for _, li := range r.members {
		residual -= r.dev[li]
		residual += math.Abs(r.actual[li] - r.forecast[li]*ripple)
	}
	ps := 1 - residual/r.totalDev
	if ps < 0 {
		ps = 0
	}
	return ps
}
