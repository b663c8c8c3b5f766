package squeeze

import (
	"math"
	"sort"

	"repro/internal/kpi"
	"repro/internal/localize"
)

// referenceLocalize is Localize as it was before the search scored from
// per-cuboid group state: each cluster builds its evaluation universe with
// a map lookup per leaf, and each (cluster, cuboid) pair rescans the
// leaves for group totals and v/f sums and rescans the whole universe once
// per prefix. It is kept as the oracle the grouped search is held to:
// identical patterns, identical score bits.
func (l *Localizer) referenceLocalize(snapshot *kpi.Snapshot, k int) localize.Result {
	var (
		scores  []float64
		leafIdx []int
	)
	for i, leaf := range snapshot.Leaves {
		if !leaf.Anomalous {
			continue
		}
		scores = append(scores, deviationScore(leaf, l.cfg.Eps))
		leafIdx = append(leafIdx, i)
	}
	if len(scores) == 0 {
		return localize.Result{}
	}
	var (
		patterns []localize.ScoredPattern
		seen     = make(map[string]struct{})
	)
	for _, c := range clusterByDeviation(scores, leafIdx, l.cfg.BinWidth) {
		best := l.referenceLocateCluster(snapshot, c)
		for _, combo := range best.combos {
			key := combo.Key()
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			patterns = append(patterns, localize.ScoredPattern{Combo: combo, Score: best.gps})
		}
	}
	localize.SortPatterns(patterns)
	if k < len(patterns) {
		patterns = patterns[:k]
	}
	return localize.Result{Patterns: patterns}
}

func (l *Localizer) referenceLocateCluster(snapshot *kpi.Snapshot, c cluster) candidateSet {
	attrs := make([]int, snapshot.Schema.NumAttributes())
	for i := range attrs {
		attrs[i] = i
	}
	inCluster := make(map[int]struct{}, len(c.leafIdx))
	for _, i := range c.leafIdx {
		inCluster[i] = struct{}{}
	}
	var evalIdx []int
	for i, leaf := range snapshot.Leaves {
		if _, ok := inCluster[i]; ok {
			evalIdx = append(evalIdx, i)
		} else if !leaf.Anomalous {
			evalIdx = append(evalIdx, i)
		}
	}
	best := candidateSet{gps: math.Inf(-1)}
	for _, cuboid := range kpi.AllCuboids(attrs) {
		set, gps := l.referenceLocateInCuboid(snapshot, cuboid, c, evalIdx)
		if len(set) == 0 {
			continue
		}
		if gps > best.gps+tieEps {
			best = candidateSet{combos: set, gps: gps}
		}
	}
	if len(best.combos) == 0 {
		return candidateSet{}
	}
	return best
}

func (l *Localizer) referenceLocateInCuboid(snapshot *kpi.Snapshot, cuboid kpi.Cuboid, c cluster, evalIdx []int) ([]kpi.Combination, float64) {
	ix := kpi.NewCuboidIndexer(snapshot.Schema, cuboid)
	if ix.Size() < 0 || ix.Size() > math.MaxInt32 {
		return nil, math.Inf(-1)
	}
	clusterCount := make([]int, ix.Size())
	for _, i := range c.leafIdx {
		clusterCount[ix.Index(snapshot.Leaves[i].Combo)]++
	}
	totalCount := make([]int, ix.Size())
	for i := range snapshot.Leaves {
		g := ix.Index(snapshot.Leaves[i].Combo)
		if clusterCount[g] > 0 {
			totalCount[g]++
		}
	}
	type ranked struct {
		group   int
		descent float64
	}
	var order []ranked
	for g, n := range clusterCount {
		if n == 0 {
			continue
		}
		order = append(order, ranked{group: g, descent: float64(n) / float64(totalCount[g])})
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].descent != order[j].descent {
			return order[i].descent > order[j].descent
		}
		return order[i].group < order[j].group
	})
	maxPrefix := l.cfg.MaxPrefix
	if maxPrefix > len(order) {
		maxPrefix = len(order)
	}
	var (
		leafGroup = make([]int32, len(evalIdx))
		leafDev   = make([]float64, len(evalIdx))
		groupV    = make([]float64, ix.Size())
		groupF    = make([]float64, ix.Size())
		totalDev  float64
	)
	for pos, i := range evalIdx {
		leaf := snapshot.Leaves[i]
		g := ix.Index(leaf.Combo)
		leafGroup[pos] = int32(g)
		leafDev[pos] = math.Abs(leaf.Actual - leaf.Forecast)
		groupV[g] += leaf.Actual
		groupF[g] += leaf.Forecast
		totalDev += leafDev[pos]
	}
	if totalDev < l.cfg.Eps {
		return nil, math.Inf(-1)
	}
	var (
		bestGPS    = math.Inf(-1)
		bestPrefix int
		selected   = make([]bool, ix.Size())
		vS, fS     float64
	)
	for j := 1; j <= maxPrefix; j++ {
		g := order[j-1].group
		selected[g] = true
		vS += groupV[g]
		fS += groupF[g]
		ripple := 1.0
		if fS > l.cfg.Eps {
			ripple = vS / fS
		}
		residual := totalDev
		for pos, i := range evalIdx {
			if !selected[leafGroup[pos]] {
				continue
			}
			leaf := snapshot.Leaves[i]
			residual -= leafDev[pos]
			residual += math.Abs(leaf.Actual - leaf.Forecast*ripple)
		}
		gps := 1 - residual/totalDev
		if gps > bestGPS {
			bestGPS = gps
			bestPrefix = j
		}
	}
	if bestPrefix == 0 {
		return nil, math.Inf(-1)
	}
	set := make([]kpi.Combination, 0, bestPrefix)
	for j := 0; j < bestPrefix; j++ {
		set = append(set, ix.Combination(order[j].group))
	}
	return set, bestGPS
}

// referenceClusterByDeviation is clusterByDeviation as it was before it
// stopped allocating one histogram bin per BinWidth of the score range.
// It agrees with clusterByDeviation wherever that histogram fits in
// memory and every score is finite.
func referenceClusterByDeviation(scores []float64, leafIdx []int, binWidth float64) []cluster {
	if len(scores) == 0 {
		return nil
	}
	if binWidth <= 0 {
		binWidth = 0.05
	}
	minScore := scores[0]
	maxScore := scores[0]
	for _, s := range scores {
		minScore = math.Min(minScore, s)
		maxScore = math.Max(maxScore, s)
	}
	nBins := int((maxScore-minScore)/binWidth) + 1
	bins := make([][]int, nBins)
	for i, s := range scores {
		b := int((s - minScore) / binWidth)
		if b >= nBins {
			b = nBins - 1
		}
		bins[b] = append(bins[b], i)
	}
	var clusters []cluster
	var current []int
	gap := 0
	flush := func() {
		if len(current) == 0 {
			return
		}
		c := cluster{leafIdx: make([]int, 0, len(current))}
		var sum float64
		for _, i := range current {
			c.leafIdx = append(c.leafIdx, leafIdx[i])
			sum += scores[i]
		}
		c.center = sum / float64(len(current))
		clusters = append(clusters, c)
		current = nil
	}
	for _, b := range bins {
		if len(b) == 0 {
			gap++
			if gap >= 2 {
				flush()
			}
			continue
		}
		gap = 0
		current = append(current, b...)
	}
	flush()
	sort.SliceStable(clusters, func(i, j int) bool {
		return len(clusters[i].leafIdx) > len(clusters[j].leafIdx)
	})
	return clusters
}
