// Package squeeze implements the Squeeze baseline (Li et al., ISSRE 2019):
// generic and robust localization of multi-dimensional root causes. Squeeze
// first clusters the anomalous leaves by their deviation scores (one cluster
// per failure, relying on the vertical/horizontal magnitude assumptions),
// then for each cluster searches every cuboid bottom-up for the attribute
// combination set with the highest Generalized Potential Score (GPS).
//
// The GPS here follows the published formula in spirit: for a candidate set
// S, the deduced values a_i distribute S's aggregate change over its leaves
// proportionally to their forecasts (the ripple effect), and
//
//	GPS(S) = 1 - (sum_{i in S} |v_i - a_i| + sum_{i not in S} |v_i - f_i|)
//	             / (sum_i |v_i - f_i|)
//
// evaluated over the cluster's leaves plus all normal leaves.
package squeeze

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/kpi"
	"repro/internal/localize"
)

// Config holds Squeeze's knobs.
type Config struct {
	// BinWidth is the histogram bin width for deviation clustering.
	BinWidth float64
	// MaxPrefix bounds the candidate-set size explored per cuboid.
	MaxPrefix int
	// Eps guards divisions.
	Eps float64
}

// DefaultConfig returns the defaults used in the experiments.
func DefaultConfig() Config {
	return Config{BinWidth: 0.05, MaxPrefix: 20, Eps: 1e-9}
}

// Localizer is a configured Squeeze instance.
type Localizer struct {
	cfg Config
}

var _ localize.Localizer = (*Localizer)(nil)

// New validates the configuration.
func New(cfg Config) (*Localizer, error) {
	if cfg.BinWidth <= 0 {
		return nil, fmt.Errorf("squeeze: BinWidth %v, want > 0", cfg.BinWidth)
	}
	if cfg.MaxPrefix < 1 {
		return nil, fmt.Errorf("squeeze: MaxPrefix %d, want >= 1", cfg.MaxPrefix)
	}
	return &Localizer{cfg: cfg}, nil
}

// Name implements localize.Localizer.
func (l *Localizer) Name() string { return "Squeeze" }

// Localize implements localize.Localizer. Note that Squeeze derives its
// result count from the clusters it finds; k only truncates (the paper
// observes that "the Squeeze algorithm can not return a specified number of
// results").
func (l *Localizer) Localize(snapshot *kpi.Snapshot, k int) (localize.Result, error) {
	if snapshot == nil {
		return localize.Result{}, fmt.Errorf("squeeze: nil snapshot")
	}
	if k <= 0 {
		return localize.Result{}, fmt.Errorf("squeeze: k = %d, want > 0", k)
	}

	// Deviation scores of the anomalous leaves.
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
		return localize.Result{}, nil
	}

	clusters := clusterByDeviation(scores, leafIdx, l.cfg.BinWidth)

	var (
		patterns []localize.ScoredPattern
		seen     = make(map[string]struct{})
	)
	for _, c := range clusters {
		best := l.locateCluster(snapshot, c)
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
	return localize.Result{Patterns: patterns}, nil
}

// deviationScore is Squeeze's leaf deviation: 2(f - v) / (f + v).
func deviationScore(l kpi.Leaf, eps float64) float64 {
	return 2 * (l.Forecast - l.Actual) / (l.Forecast + l.Actual + eps)
}

// candidateSet is the outcome of locating one cluster.
type candidateSet struct {
	combos []kpi.Combination
	gps    float64
}

// locateCluster searches every cuboid for the candidate set that best
// explains the cluster, in ascending layer order so that a coarser set wins
// GPS ties.
func (l *Localizer) locateCluster(snapshot *kpi.Snapshot, c cluster) candidateSet {
	attrs := make([]int, snapshot.Schema.NumAttributes())
	for i := range attrs {
		attrs[i] = i
	}

	// Evaluation universe: this cluster's leaves plus all normal leaves.
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

	// A coarser cuboid keeps the crown on (near-)ties: floating-point
	// noise must not let a descendant set in a deeper cuboid displace
	// the equally-scoring true set (succinctness preference).
	const tieEps = 1e-9
	best := candidateSet{gps: math.Inf(-1)}
	for _, cuboid := range kpi.AllCuboids(attrs) {
		set, gps := l.locateInCuboid(snapshot, cuboid, c, evalIdx)
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

// locateInCuboid ranks the cuboid's combinations by how strongly the
// cluster concentrates in them ("descent score") and evaluates GPS for each
// prefix of the ranking, returning the best prefix. The hot loops run on
// dense mixed-radix group indexes (kpi.CuboidIndexer) instead of projected
// map keys.
func (l *Localizer) locateInCuboid(snapshot *kpi.Snapshot, cuboid kpi.Cuboid, c cluster, evalIdx []int) ([]kpi.Combination, float64) {
	ix := kpi.NewCuboidIndexer(snapshot.Schema, cuboid)
	if ix.Size() < 0 || ix.Size() > math.MaxInt32 {
		// The dense per-group slices below (and leafGroup's int32 group
		// indexes) cannot span this cuboid's domain.
		return nil, math.Inf(-1)
	}

	// Cluster mass per group, then dataset-wide totals for the groups
	// the cluster touches.
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

	// Precompute, over the evaluation universe, each leaf's group, its
	// |v - f| deviation, and per-group v/f sums.
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
		// GPS: residual of the ripple explanation inside S plus the
		// unexplained deviation outside S, normalized by the total.
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
