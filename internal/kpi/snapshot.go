package kpi

import (
	"fmt"
	"sort"
	"sync"
)

// Leaf is one most fine-grained attribute combination at a single timestamp,
// carrying the actual value v, the forecast value f and the anomaly label
// produced by a leaf-level detector (Table III of the paper plus the label
// column consumed by RAPMiner).
type Leaf struct {
	Combo     Combination
	Actual    float64
	Forecast  float64
	Anomalous bool
}

// Dev returns the relative deviation (f - v) / f used by the paper's
// failure-injection procedure (Eq. 4). eps guards the division so the
// denominator's magnitude never falls below eps: the guard is applied on
// the side of the forecast's own sign, so a negative forecast (derived
// KPIs can dip below zero) keeps its sign and cannot push the denominator
// across zero — which would flip the deviation's sign or blow it up.
func (l Leaf) Dev(eps float64) float64 {
	den := l.Forecast + eps
	if l.Forecast < 0 {
		den = l.Forecast - eps
	}
	return (l.Forecast - l.Actual) / den
}

// Snapshot is the basic dataset D: the leaves of Cub_{A,B,...} observed at
// one timestamp. A snapshot may be sparse — leaves with no traffic are
// simply absent — matching the paper's support_count semantics, which are
// defined over the observed dataset D rather than the full Cartesian
// product.
//
// A snapshot lazily caches structures derived from its leaves (cuboid
// indexers, the anomalous leaf set and its per-attribute inverted lists);
// the caches are safe for concurrent readers. Code that rewrites the
// Anomalous labels in place after the snapshot has been used must call
// InvalidateLabels or PatchLabels (the anomaly package's labelers do), and
// mutation in general — relabeling, ApplyDelta — must not race with
// readers: the caller serializes ticks against searches, as the pipeline's
// continuous runner does.
type Snapshot struct {
	Schema *Schema
	Leaves []Leaf

	// mu guards the lazily built caches below.
	mu       sync.Mutex
	indexers map[string]*CuboidIndexer
	labeled  *labelDerived
	// frame is the label-independent half of the columnar store (element
	// IDs, v/f columns); built once, shared across label invalidations and
	// patched in place by ApplyDelta.
	frame *colFrame
	// leafPos maps Combination.Key() to the leaf's index; built lazily and
	// maintained incrementally by ApplyDelta.
	leafPos map[string]int32
	// gen stamps the snapshot's mutation generation: every label or
	// structure mutation (InvalidateLabels, PatchLabels, ApplyDelta,
	// InvalidateStructure) bumps it. Lazy builders that assemble a cache
	// outside the lock re-check the stamp before storing, so a build that
	// raced a mutation is discarded instead of resurrecting stale state —
	// the same contract InvalidateLabels' pointer swap used to enforce.
	gen uint64
}

// labelDerived bundles every cache computed from the Anomalous labels, so
// one pointer swap invalidates them together. Its fields are built lazily
// under the snapshot's mutex and patched in place by PatchLabels.
type labelDerived struct {
	// anomIdx lists the indexes (into Leaves) of anomalous leaves,
	// ascending.
	anomIdx []int
	// postings, built on demand, holds per (attribute, code) the indexes
	// of the anomalous leaves carrying that code: postings[a][code],
	// sorted ascending.
	postings [][][]int32
	// cols is the columnar leaf store (element-ID columns plus the packed
	// anomaly bitset and its cached count); it shares the snapshot's frame
	// and is rebuilt — bitset and count together — after InvalidateLabels.
	cols *Columns
}

// NewSnapshot validates that every leaf is fully constrained, carries valid
// codes, and appears at most once.
func NewSnapshot(schema *Schema, leaves []Leaf) (*Snapshot, error) {
	seen := newLeafSet(schema, len(leaves))
	for i, l := range leaves {
		if len(l.Combo) != schema.NumAttributes() {
			return nil, fmt.Errorf("kpi: leaf %d has %d attributes, schema has %d",
				i, len(l.Combo), schema.NumAttributes())
		}
		for a, code := range l.Combo {
			if code == Wildcard {
				return nil, fmt.Errorf("kpi: leaf %d is not fully constrained (attribute %s)",
					i, schema.Attribute(a).Name)
			}
			if !schema.ValidCode(a, code) {
				return nil, fmt.Errorf("kpi: leaf %d has invalid code %d for attribute %s",
					i, code, schema.Attribute(a).Name)
			}
		}
		if seen.add(l.Combo) {
			return nil, fmt.Errorf("kpi: duplicate leaf %s", l.Combo.Format(schema))
		}
	}
	return &Snapshot{Schema: schema, Leaves: leaves}, nil
}

// leafSet is NewSnapshot's duplicate check. It keys each leaf by its packed
// mixed-radix index over the whole schema: a bitset when the schema's
// product is within a small multiple of the leaf count, a map otherwise. A
// schema whose product overflows an int (NumLeaves -1) has no packed index
// and falls back to the combination's byte key.
type leafSet struct {
	ix     *CuboidIndexer
	bits   []uint64
	packed map[uint64]struct{}
	keys   map[string]struct{}
}

func newLeafSet(schema *Schema, leaves int) leafSet {
	size := schema.NumLeaves()
	if size < 0 {
		return leafSet{keys: make(map[string]struct{}, leaves)}
	}
	all := make(Cuboid, schema.NumAttributes())
	for a := range all {
		all[a] = a
	}
	s := leafSet{ix: NewCuboidIndexer(schema, all)}
	if size <= max(64*leaves, 1<<12) {
		s.bits = make([]uint64, (size+63)/64)
	} else {
		s.packed = make(map[uint64]struct{}, leaves)
	}
	return s
}

// add records the leaf c, whose codes are valid for the schema, and reports
// whether it was already there.
func (s *leafSet) add(c Combination) bool {
	if s.keys != nil {
		k := c.Key()
		_, dup := s.keys[k]
		s.keys[k] = struct{}{}
		return dup
	}
	idx := s.ix.Index(c)
	if s.bits != nil {
		w, bit := idx/64, uint64(1)<<(idx%64)
		dup := s.bits[w]&bit != 0
		s.bits[w] |= bit
		return dup
	}
	_, dup := s.packed[uint64(idx)]
	s.packed[uint64(idx)] = struct{}{}
	return dup
}

// Len returns the number of observed leaves |D|.
func (s *Snapshot) Len() int { return len(s.Leaves) }

// NumAnomalous returns the number of leaves labeled anomalous.
func (s *Snapshot) NumAnomalous() int {
	n := 0
	for _, l := range s.Leaves {
		if l.Anomalous {
			n++
		}
	}
	return n
}

// Indexer returns the snapshot's cached CuboidIndexer for the cuboid,
// building it on first use. Indexers depend only on the schema, which is
// immutable, so the cache never goes stale. Safe for concurrent use.
func (s *Snapshot) Indexer(c Cuboid) *CuboidIndexer {
	// Attribute indexes are encoded big-endian as two bytes each, which is
	// collision-free for schemas up to 1<<16 attributes (far beyond any
	// realistic KPI schema; a single byte would silently collide attribute
	// a with attribute a+256 and hand back the wrong cuboid's indexer).
	var kb [32]byte
	key := kb[:0]
	for _, a := range c {
		key = append(key, byte(a>>8), byte(a))
	}
	s.mu.Lock()
	ix, ok := s.indexers[string(key)]
	if !ok {
		ix = NewCuboidIndexer(s.Schema, c)
		if s.indexers == nil {
			s.indexers = make(map[string]*CuboidIndexer, 8)
		}
		s.indexers[string(key)] = ix
	}
	s.mu.Unlock()
	return ix
}

// InvalidateLabels drops every cache derived from the Anomalous labels —
// the anomalous leaf set, the inverted postings, and the columnar store's
// anomaly bitset together with its cached count. Callers that rewrite
// labels in place (detectors relabeling a snapshot) must invalidate before
// the snapshot is searched again. Label-independent caches — the columnar
// frame, the cuboid indexers and the leaf-position index — deliberately
// survive: a relabel cycle must not force the next tick to re-encode the
// world (PatchLabels is the cheaper alternative when the changed leaf set
// is known).
func (s *Snapshot) InvalidateLabels() {
	s.mu.Lock()
	s.gen++
	s.labeled = nil
	s.mu.Unlock()
}

// InvalidateStructure drops every cache derived from the leaf set itself —
// the columnar frame, the leaf-position index and (with them necessarily)
// the label-derived bundle. Callers that mutate Leaves directly, outside
// ApplyDelta, must invalidate before the snapshot is used again. The
// cuboid indexers survive: they depend only on the schema.
func (s *Snapshot) InvalidateStructure() {
	s.mu.Lock()
	s.gen++
	s.labeled = nil
	s.frame = nil
	s.leafPos = nil
	s.mu.Unlock()
}

// FullRebuild is InvalidateStructure under the name the delta-ingestion
// contract uses: the fallback when an incremental path cannot patch (the
// schema or attribute cardinalities changed, or the caller lost track of
// what moved). Every cache rebuilds from the Leaves on next use.
func (s *Snapshot) FullRebuild() { s.InvalidateStructure() }

// Generation returns the snapshot's mutation generation: it advances on
// every InvalidateLabels/PatchLabels/ApplyDelta/InvalidateStructure call.
// Observability and tests use it to assert that caches were patched rather
// than rebuilt across a mutation.
func (s *Snapshot) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// labelCache returns the lazily built label-derived bundle.
func (s *Snapshot) labelCache() *labelDerived {
	s.mu.Lock()
	ld := s.labelCacheLocked()
	s.mu.Unlock()
	return ld
}

// labelCacheLocked is labelCache with s.mu already held.
func (s *Snapshot) labelCacheLocked() *labelDerived {
	ld := s.labeled
	if ld == nil {
		ld = &labelDerived{}
		for i := range s.Leaves {
			if s.Leaves[i].Anomalous {
				ld.anomIdx = append(ld.anomIdx, i)
			}
		}
		s.labeled = ld
	}
	return ld
}

// colFrameCached returns the snapshot's label-independent columns, building
// them on first use. The frame depends only on the leaves' combinations and
// values, so it survives InvalidateLabels; ApplyDelta patches it in place.
func (s *Snapshot) colFrameCached() *colFrame {
	s.mu.Lock()
	f := s.frame
	gen := s.gen
	s.mu.Unlock()
	if f != nil {
		return f
	}
	// Build outside the lock: the encode is O(leaves) and concurrent
	// builders produce identical frames, so the first store wins — unless
	// the generation moved underneath the build, in which case the built
	// frame describes a dead state and is discarded.
	f = buildColFrame(s.Schema, s.Leaves)
	s.mu.Lock()
	switch {
	case s.frame != nil:
		f = s.frame
	case s.gen == gen:
		s.frame = f
	default:
		// A mutation landed mid-build; leave frame nil so the next caller
		// rebuilds from the mutated leaves. (Mutators are documented to
		// serialize against readers, so this is belt-and-braces, not a
		// supported interleaving.)
		f = nil
	}
	s.mu.Unlock()
	if f == nil {
		return s.colFrameCached()
	}
	return f
}

// Columns returns the snapshot's columnar leaf store, building it on first
// use. The store is cached with the other label-derived structures,
// invalidated as a unit by InvalidateLabels and patched in place by
// PatchLabels, so the anomaly bitset and its cached count can never go
// stale independently of each other. Safe for concurrent use; treat the
// result as read-only.
func (s *Snapshot) Columns() *Columns {
	frame := s.colFrameCached()
	s.mu.Lock()
	defer s.mu.Unlock()
	ld := s.labelCacheLocked()
	if ld.cols == nil {
		ld.cols = newColumns(s.Schema, frame, len(s.Leaves), ld.anomIdx)
	}
	return ld.cols
}

// AnomalousLeafSet returns the index positions (into Leaves) of the
// anomalous leaves; used by the early-stop coverage check. The returned
// slice is cached on the snapshot — treat it as read-only.
func (s *Snapshot) AnomalousLeafSet() []int {
	return s.labelCache().anomIdx
}

// AnomalousPostings returns, per attribute and per code, the indexes of the
// anomalous leaves carrying that code: postings[attr][code] is sorted
// ascending. The inverted lists let coverage checks walk only a
// combination's member leaves instead of testing every anomalous leaf.
// Cached on the snapshot — treat the result as read-only.
func (s *Snapshot) AnomalousPostings() [][][]int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ld := s.labelCacheLocked()
	if ld.postings != nil {
		return ld.postings
	}
	n := s.Schema.NumAttributes()
	postings := make([][][]int32, n)
	for a := 0; a < n; a++ {
		postings[a] = make([][]int32, s.Schema.Cardinality(a))
	}
	for _, i := range ld.anomIdx {
		combo := s.Leaves[i].Combo
		for a := 0; a < n; a++ {
			postings[a][combo[a]] = append(postings[a][combo[a]], int32(i))
		}
	}
	ld.postings = postings
	return ld.postings
}

// SupportCount returns support_count_D(ac) and support_count_D(ac, Anomaly):
// the number of leaf descendants of ac in D, and how many of them are
// anomalous (Criteria 2 of the paper).
func (s *Snapshot) SupportCount(ac Combination) (total, anomalous int) {
	for _, l := range s.Leaves {
		if !ac.Matches(l.Combo) {
			continue
		}
		total++
		if l.Anomalous {
			anomalous++
		}
	}
	return total, anomalous
}

// Confidence returns Confidence(ac => Anomaly): the anomalous fraction of
// ac's leaf descendants, or 0 when ac has no descendants in D.
func (s *Snapshot) Confidence(ac Combination) float64 {
	total, anomalous := s.SupportCount(ac)
	if total == 0 {
		return 0
	}
	return float64(anomalous) / float64(total)
}

// Sum aggregates the fundamental KPI of ac from its leaf descendants
// (Fig. 4): the summed actual and forecast values.
func (s *Snapshot) Sum(ac Combination) (actual, forecast float64) {
	for _, l := range s.Leaves {
		if ac.Matches(l.Combo) {
			actual += l.Actual
			forecast += l.Forecast
		}
	}
	return actual, forecast
}

// GroupStats holds the aggregate of one group of a cuboid group-by.
type GroupStats struct {
	Combo     Combination
	Total     int
	Anomalous int
	Actual    float64
	Forecast  float64
}

// Confidence returns the anomaly confidence of the group.
func (g GroupStats) Confidence() float64 {
	if g.Total == 0 {
		return 0
	}
	return float64(g.Anomalous) / float64(g.Total)
}

// statsScratch pools the dense accumulator arrays of GroupByAppend so
// steady-state group-bys allocate nothing but their output.
type statsScratch struct {
	total     []int32
	anomalous []int32
	actual    []float64
	forecast  []float64
}

var statsScratchPool = sync.Pool{New: func() any { return new(statsScratch) }}

// grow sizes and zeroes the accumulators for a domain of size n.
func (sc *statsScratch) grow(n int) {
	if cap(sc.total) < n {
		sc.total = make([]int32, n)
		sc.anomalous = make([]int32, n)
		sc.actual = make([]float64, n)
		sc.forecast = make([]float64, n)
		return
	}
	sc.total = sc.total[:n]
	sc.anomalous = sc.anomalous[:n]
	sc.actual = sc.actual[:n]
	sc.forecast = sc.forecast[:n]
	clear(sc.total)
	clear(sc.anomalous)
	clear(sc.actual)
	clear(sc.forecast)
}

// GroupBy projects every leaf onto the cuboid's attributes and accumulates
// per-combination statistics in a single pass over D. Only combinations that
// actually occur in D are returned; the order is deterministic (ascending
// mixed-radix group index, which equals lexicographic code order).
//
// Dense cuboids are accumulated in flat arrays indexed by CuboidIndexer;
// when the cuboid's Cartesian size dwarfs the observed leaf count (very
// sparse data over a huge domain) a map-based path avoids allocating the
// full domain.
func (s *Snapshot) GroupBy(c Cuboid) []GroupStats {
	return s.GroupByAppend(c, nil)
}

// GroupByAppend is GroupBy appending into dst (reusing its capacity after
// truncation to zero length), so callers scanning many cuboids can recycle
// one result buffer. The accumulator arrays come from a sync.Pool, leaving
// the per-group Combinations as the only steady-state allocations.
func (s *Snapshot) GroupByAppend(c Cuboid, dst []GroupStats) []GroupStats {
	dst = dst[:0]
	ix := s.Indexer(c)
	if size := ix.Size(); size < 0 || size > denseGroupByLimit(len(s.Leaves)) {
		return s.groupBySparse(c, ix, dst)
	}
	sc := statsScratchPool.Get().(*statsScratch)
	sc.grow(ix.Size())
	for i := range s.Leaves {
		l := &s.Leaves[i]
		g := ix.Index(l.Combo)
		sc.total[g]++
		if l.Anomalous {
			sc.anomalous[g]++
		}
		sc.actual[g] += l.Actual
		sc.forecast[g] += l.Forecast
	}
	for g, n := range sc.total {
		if n == 0 {
			continue
		}
		dst = append(dst, GroupStats{
			Combo:     ix.Combination(g),
			Total:     int(n),
			Anomalous: int(sc.anomalous[g]),
			Actual:    sc.actual[g],
			Forecast:  sc.forecast[g],
		})
	}
	statsScratchPool.Put(sc)
	return dst
}

// denseGroupByLimit bounds the flat-array domain size relative to the
// observed leaf count: past it the dense path wastes more memory zeroing
// empty groups than the map path costs in hashing.
func denseGroupByLimit(leaves int) int {
	const floor = 1 << 16
	if limit := 64 * leaves; limit > floor {
		return limit
	}
	return floor
}

// groupBySparse is the map-based group-by used for huge sparse domains.
func (s *Snapshot) groupBySparse(c Cuboid, ix *CuboidIndexer, dst []GroupStats) []GroupStats {
	pos := make(map[int]int32, 64)
	var order []int
	for i := range s.Leaves {
		l := &s.Leaves[i]
		g := ix.Index(l.Combo)
		p, ok := pos[g]
		if !ok {
			p = int32(len(dst))
			pos[g] = p
			dst = append(dst, GroupStats{Combo: l.Combo.Project(c)})
			order = append(order, g)
		}
		st := &dst[p]
		st.Total++
		if l.Anomalous {
			st.Anomalous++
		}
		st.Actual += l.Actual
		st.Forecast += l.Forecast
	}
	sort.Sort(&sparseStatsSort{groups: order, stats: dst})
	return dst
}

// sparseStatsSort orders sparse group-by output by ascending group index,
// swapping the stats in lockstep with their keys.
type sparseStatsSort struct {
	groups []int
	stats  []GroupStats
}

func (s *sparseStatsSort) Len() int           { return len(s.groups) }
func (s *sparseStatsSort) Less(i, j int) bool { return s.groups[i] < s.groups[j] }
func (s *sparseStatsSort) Swap(i, j int) {
	s.groups[i], s.groups[j] = s.groups[j], s.groups[i]
	s.stats[i], s.stats[j] = s.stats[j], s.stats[i]
}

// Clone returns a deep copy of the snapshot (leaves and combinations).
// Lazily built caches are not carried over; they rebuild on demand.
func (s *Snapshot) Clone() *Snapshot {
	leaves := make([]Leaf, len(s.Leaves))
	for i, l := range s.Leaves {
		leaves[i] = Leaf{
			Combo:     l.Combo.Clone(),
			Actual:    l.Actual,
			Forecast:  l.Forecast,
			Anomalous: l.Anomalous,
		}
	}
	return &Snapshot{Schema: s.Schema, Leaves: leaves}
}
