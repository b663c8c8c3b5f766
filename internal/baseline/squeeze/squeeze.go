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
	"slices"
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
	for _, best := range l.locateClusters(snapshot, clusters) {
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

// tieEps keeps the crown on a coarser cuboid on (near-)ties: floating-point
// noise must not let a descendant set in a deeper cuboid displace the
// equally-scoring true set (succinctness preference).
const tieEps = 1e-9

// A leaf's role in the evaluation universes is its cluster id (>= 0) or
// one of these.
const (
	// normalLeaf belongs to every cluster's universe.
	normalLeaf int32 = -1
	// unclusteredLeaf is anomalous but in no cluster (its deviation score
	// is not finite), so it belongs to no universe.
	unclusteredLeaf int32 = -2
)

// candidateSet is the outcome of locating one cluster.
type candidateSet struct {
	combos []kpi.Combination
	gps    float64
}

// universe is the cuboid-independent half of the GPS evaluation. Cluster
// c's evaluation universe is its own leaves plus every normal leaf.
type universe struct {
	clusters []cluster
	// role holds each leaf's cluster id, normalLeaf or unclusteredLeaf.
	role []int32
	// dev holds each leaf's |v - f|.
	dev []float64
	// totalDev holds each cluster's sum of dev over its universe, added
	// in ascending leaf order.
	totalDev []float64
}

func newUniverse(snapshot *kpi.Snapshot, clusters []cluster) *universe {
	n := snapshot.Len()
	u := &universe{
		clusters: clusters,
		role:     make([]int32, n),
		dev:      make([]float64, n),
		totalDev: make([]float64, len(clusters)),
	}
	for i := range snapshot.Leaves {
		leaf := &snapshot.Leaves[i]
		u.dev[i] = math.Abs(leaf.Actual - leaf.Forecast)
		u.role[i] = normalLeaf
		if leaf.Anomalous {
			u.role[i] = unclusteredLeaf
		}
	}
	for c, cl := range clusters {
		for _, i := range cl.leafIdx {
			u.role[i] = int32(c)
		}
	}
	for i, r := range u.role {
		switch {
		case r == normalLeaf:
			for c := range u.totalDev {
				u.totalDev[c] += u.dev[i]
			}
		case r >= 0:
			u.totalDev[r] += u.dev[i]
		}
	}
	return u
}

// locateClusters searches every cuboid for the candidate set that best
// explains each cluster. Cuboids run in ascending layer order, so that a
// coarser set wins GPS ties; each cuboid's grouping is built once and
// shared by all clusters.
func (l *Localizer) locateClusters(snapshot *kpi.Snapshot, clusters []cluster) []candidateSet {
	u := newUniverse(snapshot, clusters)
	best := make([]candidateSet, len(clusters))
	for c := range best {
		best[c].gps = math.Inf(-1)
	}
	attrs := make([]int, snapshot.Schema.NumAttributes())
	for i := range attrs {
		attrs[i] = i
	}
	var (
		groups cuboidGroups
		sc     prefixScratch
	)
	for _, cuboid := range kpi.AllCuboids(attrs) {
		if !groups.build(snapshot, cuboid) {
			continue
		}
		for c := range clusters {
			n, gps := l.locateInCuboid(snapshot, &groups, u, c, &sc)
			if n > 0 && gps > best[c].gps+tieEps {
				best[c] = candidateSet{combos: groups.combos(sc.order[:n]), gps: gps}
			}
		}
	}
	return best
}

// cuboidGroups partitions the leaves by their projection onto one cuboid.
// Groups are numbered compactly in ascending mixed-radix index, so group
// numbers compare exactly as the indexes do. Every slice is O(leaves) —
// rank has at most denseRankLimit entries — and reused across cuboids.
type cuboidGroups struct {
	ix *kpi.CuboidIndexer
	// of holds each leaf's group.
	of []int32
	// index holds each group's mixed-radix index.
	index []int32
	// Group g's leaves are members[start[g]:start[g+1]], ascending.
	start, members []int32
	// rank and next are scratch for build.
	rank, next []int32
}

// denseRankLimit is kpi's dense group-by bound, max(64·leaves, 65536): up
// to it a flat index-to-group table numbers the groups, past it sorting
// the distinct indexes does.
func denseRankLimit(leaves int) int {
	return max(64*leaves, 1<<16)
}

// build groups the snapshot's leaves by cuboid. It reports false, leaving
// the cuboid unsearched, when int32 group indexes cannot span the cuboid's
// domain.
func (g *cuboidGroups) build(snapshot *kpi.Snapshot, cuboid kpi.Cuboid) bool {
	ix := snapshot.Indexer(cuboid)
	size := ix.Size()
	if size < 0 || size > math.MaxInt32 {
		return false
	}
	g.ix = ix
	n := snapshot.Len()
	g.of = resize(g.of, n)
	for i := range snapshot.Leaves {
		g.of[i] = int32(ix.Index(snapshot.Leaves[i].Combo))
	}
	g.index = g.index[:0]
	if size <= denseRankLimit(n) {
		g.rank = resize(g.rank, size)
		clear(g.rank)
		for _, x := range g.of {
			g.rank[x] = 1
		}
		for x, seen := range g.rank {
			if seen != 0 {
				g.index = append(g.index, int32(x))
				g.rank[x] = int32(len(g.index) - 1)
			}
		}
		for i, x := range g.of {
			g.of[i] = g.rank[x]
		}
	} else {
		g.index = slices.Compact(slices.Sorted(slices.Values(g.of)))
		for i, x := range g.of {
			grp, _ := slices.BinarySearch(g.index, x)
			g.of[i] = int32(grp)
		}
	}
	numGroups := len(g.index)
	g.start = resize(g.start, numGroups+1)
	clear(g.start)
	for _, grp := range g.of {
		g.start[grp+1]++
	}
	for grp := 1; grp <= numGroups; grp++ {
		g.start[grp] += g.start[grp-1]
	}
	g.next = append(g.next[:0], g.start[:numGroups]...)
	g.members = resize(g.members, n)
	for i, grp := range g.of {
		g.members[g.next[grp]] = int32(i)
		g.next[grp]++
	}
	return true
}

// size returns the number of leaves in group grp.
func (g *cuboidGroups) size(grp int32) int32 { return g.start[grp+1] - g.start[grp] }

// combos decodes the ranked groups' combinations.
func (g *cuboidGroups) combos(order []ranked) []kpi.Combination {
	set := make([]kpi.Combination, len(order))
	for j, r := range order {
		set[j] = g.ix.Combination(int(g.index[r.group]))
	}
	return set
}

// ranked is one group of a cuboid with its descent score for a cluster.
type ranked struct {
	group   int32
	descent float64
}

// prefixScratch is locateInCuboid's reusable state.
type prefixScratch struct {
	// count holds per-group cluster counts; it is all zeros between calls.
	count []int32
	order []ranked
	// Ranked group j's universe leaves are univ[univStart[j]:univStart[j+1]],
	// ascending, and sum to groupV[j] and groupF[j].
	univStart      []int
	univ           []int32
	groupV, groupF []float64
	// sel and merged hold the selected groups' universe leaves, ascending.
	sel, merged []int32
}

// locateInCuboid ranks the cuboid's groups by how strongly cluster c
// concentrates in them ("descent score") and evaluates GPS for each prefix
// of the ranking. It returns the best prefix's length, whose groups are
// sc.order[:n], and its GPS; n is 0 when no prefix scores.
//
// Every sum adds the same terms in the same order as a pass over the whole
// universe in ascending leaf order would, so the GPS bits do not depend on
// which leaves the pass skips: the v/f sums walk each ranked group's
// leaves, and each prefix's residual walks only the selected groups'
// universe leaves, merged into ascending order.
func (l *Localizer) locateInCuboid(snapshot *kpi.Snapshot, g *cuboidGroups, u *universe, c int, sc *prefixScratch) (int, float64) {
	totalDev := u.totalDev[c]
	if totalDev < l.cfg.Eps {
		return 0, math.Inf(-1)
	}
	if numGroups := len(g.index); cap(sc.count) < numGroups {
		sc.count = make([]int32, numGroups)
	} else {
		sc.count = sc.count[:numGroups]
	}
	sc.order = sc.order[:0]
	for _, i := range u.clusters[c].leafIdx {
		grp := g.of[i]
		if sc.count[grp] == 0 {
			sc.order = append(sc.order, ranked{group: grp})
		}
		sc.count[grp]++
	}
	for j := range sc.order {
		r := &sc.order[j]
		r.descent = float64(sc.count[r.group]) / float64(g.size(r.group))
		sc.count[r.group] = 0
	}
	sort.Slice(sc.order, func(i, j int) bool {
		if sc.order[i].descent != sc.order[j].descent {
			return sc.order[i].descent > sc.order[j].descent
		}
		return sc.order[i].group < sc.order[j].group
	})
	maxPrefix := min(l.cfg.MaxPrefix, len(sc.order))

	cid := int32(c)
	sc.univ = sc.univ[:0]
	sc.univStart = append(sc.univStart[:0], 0)
	sc.groupV, sc.groupF = sc.groupV[:0], sc.groupF[:0]
	for _, r := range sc.order[:maxPrefix] {
		var v, f float64
		for _, i := range g.members[g.start[r.group]:g.start[r.group+1]] {
			if role := u.role[i]; role != cid && role != normalLeaf {
				continue
			}
			leaf := &snapshot.Leaves[i]
			v += leaf.Actual
			f += leaf.Forecast
			sc.univ = append(sc.univ, i)
		}
		sc.groupV = append(sc.groupV, v)
		sc.groupF = append(sc.groupF, f)
		sc.univStart = append(sc.univStart, len(sc.univ))
	}

	var (
		bestGPS    = math.Inf(-1)
		bestPrefix int
		vS, fS     float64
	)
	sc.sel = sc.sel[:0]
	for j := 0; j < maxPrefix; j++ {
		vS += sc.groupV[j]
		fS += sc.groupF[j]
		ripple := 1.0
		if fS > l.cfg.Eps {
			ripple = vS / fS
		}
		sc.merged = mergeAscending(sc.merged[:0], sc.sel, sc.univ[sc.univStart[j]:sc.univStart[j+1]])
		sc.sel, sc.merged = sc.merged, sc.sel
		// GPS: residual of the ripple explanation inside S plus the
		// unexplained deviation outside S, normalized by the total.
		residual := totalDev
		for _, i := range sc.sel {
			leaf := &snapshot.Leaves[i]
			residual -= u.dev[i]
			residual += math.Abs(leaf.Actual - leaf.Forecast*ripple)
		}
		gps := 1 - residual/totalDev
		if gps > bestGPS {
			bestGPS = gps
			bestPrefix = j + 1
		}
	}
	return bestPrefix, bestGPS
}

// mergeAscending appends the union of two disjoint ascending slices to
// dst, ascending.
func mergeAscending(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	return append(append(dst, a[i:]...), b[j:]...)
}

// resize returns s with length n, reusing its capacity; the contents are
// unspecified.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
