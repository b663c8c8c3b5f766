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
//
// Its safe point is the cuboid: once a run's context ends, each worker
// stops before claiming its next cuboid, and the run answers from the
// cuboids searched so far. The workers check the context directly with
// localize.StopReason rather than through a localize.Poll, the check the
// sequential methods share, because a Poll belongs to one goroutine.
package squeeze

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync/atomic"

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

// Localize implements localize.Localizer.
func (l *Localizer) Localize(snapshot *kpi.Snapshot, k int) (localize.Result, error) {
	return l.LocalizeContext(context.Background(), snapshot, k)
}

// LocalizeContext implements localize.Localizer. Note that Squeeze derives
// its result count from the clusters it finds; k only truncates (the paper
// observes that "the Squeeze algorithm can not return a specified number of
// results").
func (l *Localizer) LocalizeContext(ctx context.Context, snapshot *kpi.Snapshot, k int) (localize.Result, error) {
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
	located, reason := l.locateClusters(ctx, snapshot, clusters)
	for _, best := range located {
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
	return localize.Result{Patterns: patterns, Degraded: reason != "", DegradedReason: reason}, nil
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
// c's evaluation universe is its own leaves plus every normal leaf. It is
// read-only once built, so every cuboid worker shares it.
type universe struct {
	clusters []cluster
	// actual and forecast are the snapshot's v/f columns.
	actual, forecast []float64
	// role holds each leaf's cluster id, normalLeaf or unclusteredLeaf.
	role []int32
	// dev holds each leaf's |v - f|.
	dev []float64
	// totalDev holds each cluster's sum of dev over its universe, added
	// in ascending leaf order.
	totalDev []float64
}

func newUniverse(snapshot *kpi.Snapshot, clusters []cluster) *universe {
	cols := snapshot.Columns()
	n := cols.Len()
	u := &universe{
		clusters: clusters,
		actual:   cols.Actual(),
		forecast: cols.Forecast(),
		role:     make([]int32, n),
		dev:      make([]float64, n),
		totalDev: make([]float64, len(clusters)),
	}
	for i := range n {
		u.dev[i] = math.Abs(u.actual[i] - u.forecast[i])
		u.role[i] = normalLeaf
		if cols.Anomalous(i) {
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

// prefix is one cluster's best candidate set within one cuboid: the
// mixed-radix indexes of its groups and its GPS. An empty index means no
// prefix scored.
type prefix struct {
	index []int
	gps   float64
}

// locateClusters searches every cuboid for the candidate set that best
// explains each cluster. The cuboids are searched on up to GOMAXPROCS
// goroutines, each owning its grouping and scratch and writing its
// per-cluster prefixes into the cuboid's slot; each cuboid's grouping is
// built once and shared by all clusters. The slots are then folded in
// AllCuboids order — ascending layer, so a coarser set wins GPS ties —
// with the same strictly-better-by-tieEps rule a sequential search
// applies, so the result does not depend on the worker count. A panic on
// a worker is rethrown on the calling goroutine as a *kpi.ScanPanic.
//
// Once ctx ends, workers claim no cuboid past the first; the fold then
// skips the unsearched ones and the returned reason is ctx's StopReason.
func (l *Localizer) locateClusters(ctx context.Context, snapshot *kpi.Snapshot, clusters []cluster) ([]candidateSet, string) {
	u := newUniverse(snapshot, clusters)
	attrs := make([]int, snapshot.Schema.NumAttributes())
	for i := range attrs {
		attrs[i] = i
	}
	cuboids := kpi.AllCuboids(attrs)
	slots := make([][]prefix, len(cuboids))
	var (
		next    atomic.Int64
		stopped atomic.Bool
	)
	kpi.RunWorkers(min(runtime.GOMAXPROCS(0), len(cuboids)), func(int) {
		var (
			groups cuboidGroups
			sc     prefixScratch
		)
		for {
			q := int(next.Add(1)) - 1
			if q >= len(cuboids) {
				return
			}
			if q > 0 && localize.StopReason(ctx) != "" {
				stopped.Store(true)
				return
			}
			if !groups.build(snapshot, cuboids[q]) {
				continue
			}
			slot := make([]prefix, len(clusters))
			for c := range clusters {
				n, gps := l.locateInCuboid(&groups, u, c, &sc)
				slot[c] = prefix{index: groups.indexes(sc.order[:n]), gps: gps}
			}
			slots[q] = slot
		}
	})

	best := make([]candidateSet, len(clusters))
	for c := range best {
		best[c].gps = math.Inf(-1)
	}
	for q, slot := range slots {
		for c, p := range slot {
			if len(p.index) > 0 && p.gps > best[c].gps+tieEps {
				best[c] = candidateSet{combos: combos(snapshot.Indexer(cuboids[q]), p.index), gps: p.gps}
			}
		}
	}
	if stopped.Load() {
		return best, localize.StopReason(ctx)
	}
	return best, ""
}

// cuboidGroups partitions the leaves by their projection onto one cuboid.
// Its kpi.Grouping numbers the groups compactly in ascending mixed-radix
// index, so group numbers compare exactly as the indexes do, and
// Grouping.Names holds each group's index. Every slice is reused across
// cuboids.
type cuboidGroups struct {
	kpi.Grouping
	ix *kpi.CuboidIndexer
	// Group g's leaves are members[start[g]:start[g+1]], ascending.
	start, members []int32
	// next is scratch for build.
	next []int32
}

// build groups the snapshot's leaves by cuboid. It reports false, leaving
// the cuboid unsearched, when int32 group indexes cannot span the cuboid's
// domain.
func (g *cuboidGroups) build(snapshot *kpi.Snapshot, cuboid kpi.Cuboid) bool {
	ix := snapshot.Indexer(cuboid)
	if size := ix.Size(); size < 0 || size > math.MaxInt32 {
		return false
	}
	g.ix = ix
	snapshot.Group(ix, &g.Grouping, nil)
	n := len(g.Of)
	numGroups := len(g.Names)
	g.start = resize(g.start, numGroups+1)
	clear(g.start)
	for _, grp := range g.Of {
		g.start[grp+1]++
	}
	for grp := 1; grp <= numGroups; grp++ {
		g.start[grp] += g.start[grp-1]
	}
	g.next = append(g.next[:0], g.start[:numGroups]...)
	g.members = resize(g.members, n)
	for i, grp := range g.Of {
		g.members[g.next[grp]] = int32(i)
		g.next[grp]++
	}
	return true
}

// size returns the number of leaves in group grp.
func (g *cuboidGroups) size(grp int32) int32 { return g.start[grp+1] - g.start[grp] }

// indexes returns the ranked groups' mixed-radix indexes, or nil for an
// empty ranking.
func (g *cuboidGroups) indexes(order []ranked) []int {
	if len(order) == 0 {
		return nil
	}
	index := make([]int, len(order))
	for j, r := range order {
		index[j] = g.Names[r.group]
	}
	return index
}

// combos decodes the combinations of a cuboid's groups from their
// mixed-radix indexes.
func combos(ix *kpi.CuboidIndexer, index []int) []kpi.Combination {
	set := make([]kpi.Combination, len(index))
	for j, x := range index {
		set[j] = ix.Combination(x)
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
	// sel is a bitmap over the leaves marking the selected groups'
	// universe leaves; it is all zeros between calls.
	sel []uint64
}

// locateInCuboid ranks the cuboid's groups by how strongly cluster c
// concentrates in them ("descent score") and evaluates GPS for each prefix
// of the ranking. It returns the best prefix's length, whose groups are
// sc.order[:n], and its GPS; n is 0 when no prefix scores.
//
// Every sum adds the same terms in the same order as a pass over the whole
// universe in ascending leaf order would, so the GPS bits do not depend on
// which leaves the pass skips: the v/f sums walk each ranked group's
// leaves, and each prefix's residual walks the bitmap sc.sel of the
// selected groups' universe leaves in ascending order.
func (l *Localizer) locateInCuboid(g *cuboidGroups, u *universe, c int, sc *prefixScratch) (int, float64) {
	totalDev := u.totalDev[c]
	if totalDev < l.cfg.Eps {
		return 0, math.Inf(-1)
	}
	if numGroups := len(g.Names); cap(sc.count) < numGroups {
		sc.count = make([]int32, numGroups)
	} else {
		sc.count = sc.count[:numGroups]
	}
	sc.order = sc.order[:0]
	for _, i := range u.clusters[c].leafIdx {
		grp := g.Of[i]
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
	slices.SortFunc(sc.order, func(a, b ranked) int {
		if a.descent != b.descent {
			return cmp.Compare(b.descent, a.descent)
		}
		return cmp.Compare(a.group, b.group)
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
			v += u.actual[i]
			f += u.forecast[i]
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
	if words := (len(u.dev) + 63) / 64; len(sc.sel) < words {
		sc.sel = make([]uint64, words)
	}
	// Locals: the bit walk below reading through u and sc is ~9% slower.
	dev, actual, forecast, sel := u.dev, u.actual, u.forecast, sc.sel
	// Words [lo, hi) of sel hold every set bit.
	lo, hi := len(sel), 0
	for j := 0; j < maxPrefix; j++ {
		vS += sc.groupV[j]
		fS += sc.groupF[j]
		ripple := 1.0
		if fS > l.cfg.Eps {
			ripple = vS / fS
		}
		group := sc.univ[sc.univStart[j]:sc.univStart[j+1]] // holds c's leaves, so never empty
		for _, i := range group {
			sel[i>>6] |= 1 << (i & 63)
		}
		lo, hi = min(lo, int(group[0]>>6)), max(hi, int(group[len(group)-1]>>6)+1)
		// GPS: residual of the ripple explanation inside S plus the
		// unexplained deviation outside S, normalized by the total.
		residual := totalDev
		for w, word := range sel[lo:hi] {
			base := (lo + w) << 6
			for ; word != 0; word &= word - 1 {
				i := base | bits.TrailingZeros64(word)
				residual -= dev[i]
				residual += math.Abs(actual[i] - forecast[i]*ripple)
			}
		}
		gps := 1 - residual/totalDev
		if gps > bestGPS {
			bestGPS = gps
			bestPrefix = j + 1
		}
	}
	clear(sel[min(lo, hi):hi])
	return bestPrefix, bestGPS
}

// resize returns s with length n, reusing its capacity; the contents are
// unspecified.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
