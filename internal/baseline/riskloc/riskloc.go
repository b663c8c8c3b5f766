// Package riskloc implements the RiskLoc baseline (Kalander, "RiskLoc:
// Localization of Multi-dimensional Root Causes by Weighted Risk",
// arXiv:2205.10004) adapted to this repository's leaf/cuboid model.
//
// RiskLoc scores candidate root causes with a weighted risk built from a
// 2-way partition of the leaves by deviation score:
//
//  1. Every leaf gets the Squeeze-style deviation d = 2(f - v)/(|f| + |v|),
//     mirrored so the case's dominant anomaly direction is positive.
//
//  2. A cut point c splits the leaves into an abnormal partition (d >= c)
//     and a normal partition (d < c). Each leaf is weighted by its distance
//     from the cut, normalized by its partition's extent: a leaf far past
//     the cut is confidently abnormal (weight near 1), a leaf just below it
//     is only weakly normal (weight near 0). The weighting is what makes
//     the method robust to forecast noise — leaves pushed across the cut by
//     noise carry almost no weight on either side.
//
//  3. Per cuboid, elements (attribute combinations) holding abnormal weight
//     are ordered by abnormal-weight concentration and the best prefix is
//     scored with the weighted risk
//
//     risk(S) = aw(S)/AW  -  nw(S)/(aw(S) + nw(S))
//
//     where aw/nw are the selection's abnormal/normal weight sums and AW is
//     the (remaining) abnormal weight of the whole snapshot. The first term
//     rewards covering the abnormal mass; the second penalizes selections
//     diluted by confidently-normal leaves, which is what stops a coarse
//     ancestor from absorbing a fine-grained root cause.
//
//  4. Layers are searched coarse to fine; the first layer holding a
//     selection with risk >= RiskThreshold is accepted (succinctness), its
//     abnormal weight is marked covered, and the search continues on the
//     residual so co-occurring root causes of different dimensionality are
//     still found. See DESIGN.md ("RiskLoc") for where this adaptation
//     diverges from the published method.
//
// Its safe point is the cuboid: a run whose context ends stops before the
// next cuboid's search and ranks the selections found so far.
package riskloc

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/kpi"
	"repro/internal/localize"
)

// Config holds RiskLoc's knobs.
type Config struct {
	// PartitionCut is the deviation cut point of the 2-way partition:
	// leaves with mirrored deviation >= cut form the abnormal partition.
	// The published method derives a per-case cut from the deviation
	// distribution; this reproduction pins it to the leaf detector's
	// threshold regime (see DESIGN.md).
	PartitionCut float64
	// RiskThreshold is the weighted risk a selection must reach for its
	// layer to be accepted as a root-cause layer.
	RiskThreshold float64
	// EPThreshold is the minimum explanatory power per element: the share
	// of the snapshot's total directed change an element must explain to
	// enter a selection. It prunes single-leaf fragments in fine cuboids.
	EPThreshold float64
	// MaxElements bounds the selection prefix explored per cuboid.
	MaxElements int
	// ResidualFloor stops the multi-root-cause iteration once the
	// uncovered abnormal weight falls below this share of the original.
	ResidualFloor float64
	// Eps guards divisions.
	Eps float64
}

// DefaultConfig returns the defaults used in the experiments.
func DefaultConfig() Config {
	return Config{
		PartitionCut:  0.095,
		RiskThreshold: 0.5,
		EPThreshold:   0.02,
		MaxElements:   20,
		ResidualFloor: 0.05,
		Eps:           1e-9,
	}
}

// Localizer is a configured RiskLoc instance. It is stateless per run and
// safe for concurrent use.
type Localizer struct {
	cfg Config
}

var _ localize.Localizer = (*Localizer)(nil)

// New validates the configuration.
func New(cfg Config) (*Localizer, error) {
	if cfg.PartitionCut <= 0 || cfg.PartitionCut >= 1 {
		return nil, fmt.Errorf("riskloc: PartitionCut %v out of (0, 1)", cfg.PartitionCut)
	}
	if cfg.RiskThreshold <= 0 || cfg.RiskThreshold > 1 {
		return nil, fmt.Errorf("riskloc: RiskThreshold %v out of (0, 1]", cfg.RiskThreshold)
	}
	if cfg.EPThreshold < 0 || cfg.EPThreshold >= 1 {
		return nil, fmt.Errorf("riskloc: EPThreshold %v out of [0, 1)", cfg.EPThreshold)
	}
	if cfg.MaxElements < 1 {
		return nil, fmt.Errorf("riskloc: MaxElements %d, want >= 1", cfg.MaxElements)
	}
	if cfg.ResidualFloor < 0 || cfg.ResidualFloor >= 1 {
		return nil, fmt.Errorf("riskloc: ResidualFloor %v out of [0, 1)", cfg.ResidualFloor)
	}
	if cfg.Eps <= 0 {
		return nil, fmt.Errorf("riskloc: Eps %v, want > 0", cfg.Eps)
	}
	return &Localizer{cfg: cfg}, nil
}

// Name implements localize.Localizer.
func (l *Localizer) Name() string { return "RiskLoc" }

// Localize implements localize.Localizer.
func (l *Localizer) Localize(snapshot *kpi.Snapshot, k int) (localize.Result, error) {
	return l.LocalizeContext(context.Background(), snapshot, k)
}

// partition is the 2-way deviation partition of one snapshot.
type partition struct {
	// d is the mirrored per-leaf deviation (dominant anomaly direction
	// positive).
	d []float64
	// aw/nw are the per-leaf partition weights; exactly one of the two is
	// non-zero per leaf (abnormal leaves carry aw, normal leaves nw).
	aw, nw []float64
	// delta is the per-leaf directed change dir*(f - v), for the
	// explanatory-power filter.
	delta []float64
	// AW and totalDelta are the snapshot totals.
	AW         float64
	totalDelta float64
	// groups is accumulate's grouping, reused across the run's cuboids.
	groups kpi.Grouping
}

// buildPartition computes deviations, picks the dominant direction, splits
// at the cut and assigns the distance-from-cut weights.
func (l *Localizer) buildPartition(snapshot *kpi.Snapshot) (partition, bool) {
	cut := l.cfg.PartitionCut
	n := snapshot.Len()
	p := partition{
		d:     make([]float64, n),
		aw:    make([]float64, n),
		nw:    make([]float64, n),
		delta: make([]float64, n),
	}
	for i, leaf := range snapshot.Leaves {
		den := math.Abs(leaf.Forecast) + math.Abs(leaf.Actual) + l.cfg.Eps
		p.d[i] = 2 * (leaf.Forecast - leaf.Actual) / den
	}
	// Dominant direction: the side with more beyond-cut deviation mass.
	var posMass, negMass float64
	for _, d := range p.d {
		if d >= cut {
			posMass += d - cut
		} else if d <= -cut {
			negMass += -d - cut
		}
	}
	if posMass == 0 && negMass == 0 {
		return partition{}, false // nothing beyond the cut: clean snapshot
	}
	dir := 1.0
	if negMass > posMass {
		dir = -1
	}

	dmax, dmin := math.Inf(-1), math.Inf(1)
	for i := range p.d {
		p.d[i] *= dir
		dmax = math.Max(dmax, p.d[i])
		dmin = math.Min(dmin, p.d[i])
	}
	for i, leaf := range snapshot.Leaves {
		p.delta[i] = dir * (leaf.Forecast - leaf.Actual)
		p.totalDelta += p.delta[i]
		if p.d[i] >= cut {
			w := 1.0
			if dmax > cut {
				w = (p.d[i] - cut) / (dmax - cut)
			}
			// A leaf exactly at the cut is still abnormal; keep a
			// sliver of weight so it stays coverable.
			p.aw[i] = math.Max(w, 1e-6)
			p.AW += p.aw[i]
		} else {
			w := 1.0
			if cut > dmin {
				w = (cut - p.d[i]) / (cut - dmin)
			}
			p.nw[i] = math.Min(math.Max(w, 0), 1)
		}
	}
	if p.totalDelta < l.cfg.Eps {
		p.totalDelta = l.cfg.Eps
	}
	return p, p.AW > 0
}

// selection is one cuboid's best candidate prefix.
type selection struct {
	combos []kpi.Combination
	risk   float64
	layer  int
	// order breaks risk ties deterministically: cuboid enumeration index.
	order int
}

// LocalizeContext implements localize.Localizer: the run stops at the next
// cuboid boundary once ctx ends and returns the best-so-far candidates as a
// degraded (possibly empty) partial result. RiskLoc runs on the calling
// goroutine only, so cancellation can never leak workers.
func (l *Localizer) LocalizeContext(ctx context.Context, snapshot *kpi.Snapshot, k int) (localize.Result, error) {
	if snapshot == nil {
		return localize.Result{}, fmt.Errorf("riskloc: nil snapshot")
	}
	if k <= 0 {
		return localize.Result{}, fmt.Errorf("riskloc: k = %d, want > 0", k)
	}
	p, ok := l.buildPartition(snapshot)
	if !ok {
		return localize.Result{}, nil
	}

	attrs := make([]int, snapshot.Schema.NumAttributes())
	for i := range attrs {
		attrs[i] = i
	}

	var (
		accepted    []selection
		pool        []selection // sub-threshold best-per-cuboid, for rank depth
		covered     = make([]bool, snapshot.Len())
		remainingAW = p.AW
		order       int
		poll        = localize.NewPoll(ctx)
	)
search:
	for layer := 1; layer <= len(attrs); layer++ {
		var layerHits []selection
		for _, cuboid := range kpi.CuboidsAtLayer(attrs, layer) {
			// The first cuboid is always scanned, so even a pre-canceled
			// run answers with that cuboid's best-so-far candidates when
			// any exist.
			if poll.Stop() {
				// Keep this layer's already-qualified selections.
				accepted = append(accepted, layerHits...)
				break search
			}
			sel, found := l.searchCuboid(snapshot, cuboid, &p, covered, remainingAW)
			if !found {
				continue
			}
			sel.layer = layer
			sel.order = order
			order++
			if sel.risk >= l.cfg.RiskThreshold {
				layerHits = append(layerHits, sel)
			} else {
				pool = append(pool, sel)
			}
		}
		if len(layerHits) == 0 {
			continue
		}
		sort.SliceStable(layerHits, func(i, j int) bool {
			if layerHits[i].risk != layerHits[j].risk {
				return layerHits[i].risk > layerHits[j].risk
			}
			return layerHits[i].order < layerHits[j].order
		})
		accepted = append(accepted, layerHits...)
		// Mark the accepted selections' abnormal leaves covered and
		// continue on the residual, so a co-occurring root cause in a
		// deeper layer is still found.
		for _, sel := range layerHits {
			for i := range snapshot.Leaves {
				if covered[i] || p.aw[i] == 0 {
					continue
				}
				for _, combo := range sel.combos {
					if combo.Matches(snapshot.Leaves[i].Combo) {
						covered[i] = true
						remainingAW -= p.aw[i]
						break
					}
				}
			}
		}
		if remainingAW <= l.cfg.ResidualFloor*p.AW {
			break
		}
	}

	patterns := flatten(accepted, pool)
	localize.SortPatterns(patterns)
	if k < len(patterns) {
		patterns = patterns[:k]
	}
	return poll.Result(patterns), nil
}

// flatten turns selections into per-combination scored patterns, deduping
// on the combination key with the best risk winning.
func flatten(accepted, pool []selection) []localize.ScoredPattern {
	best := make(map[string]float64)
	var out []localize.ScoredPattern
	add := func(sel selection) {
		for _, combo := range sel.combos {
			key := combo.Key()
			if prev, seen := best[key]; seen {
				if sel.risk > prev {
					best[key] = sel.risk
					for i := range out {
						if out[i].Combo.Key() == key {
							out[i].Score = sel.risk
							break
						}
					}
				}
				continue
			}
			best[key] = sel.risk
			out = append(out, localize.ScoredPattern{Combo: combo, Score: sel.risk})
		}
	}
	for _, sel := range accepted {
		add(sel)
	}
	for _, sel := range pool {
		add(sel)
	}
	return out
}

// groupAcc accumulates one element's weights during a cuboid scan.
type groupAcc struct {
	// group is the element's group index — or, when the cuboid's indexes
	// overflow, the index of its first leaf (kpi.GroupCount's convention);
	// Snapshot.DecodeGroup decodes both.
	group int
	aw    float64 // uncovered abnormal weight
	nw    float64 // normal weight
	delta float64 // directed change, for the EP filter
}

// searchCuboid orders the cuboid's elements by abnormal-weight
// concentration and returns the best weighted-risk prefix.
func (l *Localizer) searchCuboid(snapshot *kpi.Snapshot, cuboid kpi.Cuboid, p *partition, covered []bool, remainingAW float64) (selection, bool) {
	if remainingAW <= 0 {
		return selection{}, false
	}
	ix := snapshot.Indexer(cuboid)
	elems := accumulate(snapshot, ix, p, covered)

	// Explanatory-power filter: an element must hold abnormal weight and
	// explain a material share of the snapshot's directed change.
	kept := elems[:0]
	for _, e := range elems {
		if e.aw <= 0 {
			continue
		}
		if e.delta/p.totalDelta < l.cfg.EPThreshold {
			continue
		}
		kept = append(kept, e)
	}
	if len(kept) == 0 {
		return selection{}, false
	}

	// Concentration ordering: the purest-abnormal elements first, heavier
	// coverage breaking ties, group index making the order total.
	sort.SliceStable(kept, func(i, j int) bool {
		ci := kept[i].aw / (kept[i].aw + kept[i].nw)
		cj := kept[j].aw / (kept[j].aw + kept[j].nw)
		if ci != cj {
			return ci > cj
		}
		if kept[i].aw != kept[j].aw {
			return kept[i].aw > kept[j].aw
		}
		return kept[i].group < kept[j].group
	})

	maxPrefix := l.cfg.MaxElements
	if maxPrefix > len(kept) {
		maxPrefix = len(kept)
	}
	var (
		cumAW, cumNW float64
		bestRisk     = math.Inf(-1)
		bestPrefix   int
	)
	for j := 1; j <= maxPrefix; j++ {
		cumAW += kept[j-1].aw
		cumNW += kept[j-1].nw
		risk := cumAW/remainingAW - cumNW/(cumAW+cumNW)
		// Strictly-greater keeps the shortest prefix on ties
		// (succinctness).
		if risk > bestRisk {
			bestRisk = risk
			bestPrefix = j
		}
	}
	if bestPrefix == 0 {
		return selection{}, false
	}
	combos := make([]kpi.Combination, 0, bestPrefix)
	for j := 0; j < bestPrefix; j++ {
		combo := make(kpi.Combination, snapshot.Schema.NumAttributes())
		snapshot.DecodeGroup(ix, kept[j].group, combo)
		combos = append(combos, combo)
	}
	return selection{combos: combos, risk: bestRisk}, true
}

// accumulate sums the per-element partition weights over the groups
// kpi.Snapshot.Group numbers, in ascending group index.
func accumulate(snapshot *kpi.Snapshot, ix *kpi.CuboidIndexer, p *partition, covered []bool) []groupAcc {
	snapshot.Group(ix, &p.groups, nil)
	out := make([]groupAcc, len(p.groups.Names))
	for g, name := range p.groups.Names {
		out[g].group = name
	}
	for i, g := range p.groups.Of {
		acc := &out[g]
		if p.aw[i] > 0 && !covered[i] {
			acc.aw += p.aw[i]
		}
		acc.nw += p.nw[i]
		acc.delta += p.delta[i]
	}
	return out
}
