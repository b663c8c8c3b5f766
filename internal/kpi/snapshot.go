package kpi

import (
	"fmt"
	"math"
	"math/bits"
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

// Snapshot is the basic dataset D: the leaves of Cub_{A,B,...} observed at
// one timestamp. A snapshot may be sparse — leaves with no traffic are
// simply absent — matching the paper's support_count semantics, which are
// defined over the observed dataset D rather than the full Cartesian
// product.
//
// A snapshot lazily caches structures derived from its leaves: the
// columnar frame with its element counts and roll-up totals, the leaf
// positions, the cuboid indexers, and the label-derived set of anomalous
// leaves with its postings and bitset. The caches are safe for concurrent readers. After
// NewSnapshot, the leaves change only through this package's writers —
// Relabel, RelabelTouched, Rewrite and ApplyDelta — and each of them drops
// or patches exactly the caches its write affects, so no reader ever sees
// a cache that disagrees with the leaves. Code outside package kpi reads
// Leaves and never writes them (a source check in the module root pins
// this). A write must not race with readers: the caller serializes writes
// against searches, as the pipeline's continuous runner does.
type Snapshot struct {
	Schema *Schema
	Leaves []Leaf

	// mu guards the lazily built caches below.
	mu       sync.Mutex
	indexers map[string]*CuboidIndexer
	labeled  *labelDerived
	// frame is the label-independent half of the columnar store (element
	// IDs, v/f columns, element counts, roll-up totals); built once,
	// shared across label invalidations and patched in place by
	// ApplyDelta.
	frame *colFrame
	// leafPos maps each leaf (under its leafKeyer key) to its index into
	// Leaves; built lazily and maintained incrementally by ApplyDelta.
	leafPos *leafPositions
	// gen stamps the snapshot's mutation generation: every writer that
	// changes a leaf bumps it. Lazy builders that assemble a cache outside
	// the lock re-check the stamp before storing, so a build that raced a
	// write is discarded instead of resurrecting stale state.
	gen uint64
}

// labelDerived bundles every cache computed from the Anomalous labels, so
// one pointer swap invalidates them together. Its fields are built lazily
// under the snapshot's mutex, dropped by Relabel and Rewrite, and patched in
// place by RelabelTouched and ApplyDelta.
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
	// and is rebuilt — bitset and count together — after a relabel.
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
		if seen.add(seen.keyer.key(l.Combo)) {
			return nil, fmt.Errorf("kpi: duplicate leaf %s", l.Combo.Format(schema))
		}
	}
	return &Snapshot{Schema: schema, Leaves: leaves}, nil
}

// leafKeyer keys fully constrained, schema-valid leaves: by their packed
// mixed-radix index over the whole schema, or — when the schema's product
// overflows an int (NumLeaves -1), so no packed index exists — by the
// combination's byte key. NewSnapshot's duplicate check, the leaf-position
// index and ApplyDelta's duplicate checks all key leaves through it.
type leafKeyer struct {
	// ix indexes the all-attributes cuboid; nil when the schema overflows.
	ix *CuboidIndexer
}

func newLeafKeyer(schema *Schema) leafKeyer {
	if schema.NumLeaves() < 0 {
		return leafKeyer{}
	}
	all := make(Cuboid, schema.NumAttributes())
	for a := range all {
		all[a] = a
	}
	return leafKeyer{ix: NewCuboidIndexer(schema, all)}
}

// leafKey is a leaf's key under a leafKeyer: its packed index, or — when
// the schema has none — its combination's byte key. Computing it once per
// leaf lets one lookup and several set checks share it.
type leafKey struct {
	idx uint64
	str string
}

// key returns the key of the leaf c, whose codes are valid for the schema.
func (k leafKeyer) key(c Combination) leafKey {
	if k.ix == nil {
		return leafKey{str: c.Key()}
	}
	return leafKey{idx: uint64(k.ix.Index(c))}
}

// leafMap maps leaves to values under a leafKeyer's keys: packed is used
// when the schema has packed indexes, keys otherwise.
type leafMap[V any] struct {
	keyer  leafKeyer
	packed map[uint64]V
	keys   map[string]V
}

func newLeafMap[V any](k leafKeyer, leaves int) leafMap[V] {
	if k.ix == nil {
		return leafMap[V]{keyer: k, keys: make(map[string]V, leaves)}
	}
	return leafMap[V]{keyer: k, packed: make(map[uint64]V, leaves)}
}

func (m *leafMap[V]) get(k leafKey) (V, bool) {
	if m.packed != nil {
		v, ok := m.packed[k.idx]
		return v, ok
	}
	v, ok := m.keys[k.str]
	return v, ok
}

func (m *leafMap[V]) set(k leafKey, v V) {
	if m.packed != nil {
		m.packed[k.idx] = v
		return
	}
	m.keys[k.str] = v
}

func (m *leafMap[V]) delete(k leafKey) {
	if m.packed != nil {
		delete(m.packed, k.idx)
		return
	}
	delete(m.keys, k.str)
}

func (m *leafMap[V]) len() int { return len(m.packed) + len(m.keys) }

// leafSet is a set of leaves: a bitset over the packed indexes when the
// schema's product is at most 128 bits per expected leaf (a map entry
// costs about as much, and hashing more time), a leafMap otherwise.
type leafSet struct {
	leafMap[struct{}]
	bits []uint64
}

// newLeafSet sizes a set for about leaves members of the schema.
func newLeafSet(schema *Schema, leaves int) leafSet {
	return newLeafKeyer(schema).newSet(leaves)
}

func (k leafKeyer) newSet(leaves int) leafSet {
	if k.ix != nil {
		if size := k.ix.Size(); size <= max(128*leaves, 1<<12) {
			return leafSet{leafMap: leafMap[struct{}]{keyer: k}, bits: make([]uint64, (size+63)/64)}
		}
	}
	return leafSet{leafMap: newLeafMap[struct{}](k, leaves)}
}

// add records the leaf keyed k and reports whether it was already there.
func (s *leafSet) add(k leafKey) bool {
	if s.bits != nil {
		w, bit := k.idx/64, uint64(1)<<(k.idx%64)
		dup := s.bits[w]&bit != 0
		s.bits[w] |= bit
		return dup
	}
	_, dup := s.get(k)
	if !dup {
		s.set(k, struct{}{})
	}
	return dup
}

// has reports whether the leaf keyed k is in the set.
func (s *leafSet) has(k leafKey) bool {
	if s.bits != nil {
		return s.bits[k.idx/64]&(uint64(1)<<(k.idx%64)) != 0
	}
	_, ok := s.get(k)
	return ok
}

// leafPositions maps each leaf to its index into Leaves: a slot table over
// the packed indexes when the schema's product is at most max(4·leaves,
// 4096) — the same kind of rule as leafSet's bitset; a 115,200-leaf dense
// world takes 460 KB — and a leafMap otherwise. A slot holds the position
// plus one, so zero means absent.
type leafPositions struct {
	leafMap[int32]
	slots []int32
	// n counts the occupied slots.
	n int
}

func (k leafKeyer) newPositions(leaves int) *leafPositions {
	if k.ix != nil {
		if size := k.ix.Size(); size <= max(4*leaves, 1<<12) {
			return &leafPositions{leafMap: leafMap[int32]{keyer: k}, slots: make([]int32, size)}
		}
	}
	return &leafPositions{leafMap: newLeafMap[int32](k, leaves)}
}

func (p *leafPositions) get(k leafKey) (int32, bool) {
	if p.slots != nil {
		v := p.slots[k.idx]
		return v - 1, v != 0
	}
	return p.leafMap.get(k)
}

func (p *leafPositions) set(k leafKey, i int32) {
	if p.slots != nil {
		if p.slots[k.idx] == 0 {
			p.n++
		}
		p.slots[k.idx] = i + 1
		return
	}
	p.leafMap.set(k, i)
}

func (p *leafPositions) delete(k leafKey) {
	if p.slots != nil {
		if p.slots[k.idx] != 0 {
			p.n--
		}
		p.slots[k.idx] = 0
		return
	}
	p.leafMap.delete(k)
}

func (p *leafPositions) len() int {
	if p.slots != nil {
		return p.n
	}
	return p.leafMap.len()
}

// Len returns the number of observed leaves |D|.
func (s *Snapshot) Len() int { return len(s.Leaves) }

// NumAnomalous returns the number of leaves labeled anomalous: the cached
// count when the label-derived caches are built (every writer keeps them
// exact), a scan of the leaves otherwise.
func (s *Snapshot) NumAnomalous() int {
	s.mu.Lock()
	if ld := s.labeled; ld != nil {
		n := len(ld.anomIdx)
		s.mu.Unlock()
		return n
	}
	s.mu.Unlock()
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
// values, so it survives a relabel; Rewrite and ApplyDelta patch it in
// place.
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
// dropped as a unit by Relabel and Rewrite and patched in place by
// RelabelTouched and ApplyDelta, so the anomaly bitset and its cached count
// can never go stale independently of each other. Safe for concurrent use; treat the
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

// ElemCounts returns, per attribute and per element code, how many leaves
// carry that code: counts[attr][code]. The counts live on the columnar
// frame, are built on first use and are patched in place by ApplyDelta, so
// on a long-lived snapshot they cost O(touched) per tick. With the lengths
// of AnomalousPostings they are the per-branch totals of Eq. 1. Safe for
// concurrent use; treat the result as read-only.
func (s *Snapshot) ElemCounts() [][]int32 {
	frame := s.colFrameCached()
	s.mu.Lock()
	defer s.mu.Unlock()
	return frame.elemCounts(s.Schema)
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
// (Fig. 4): the summed actual and forecast values. The root — every leaf's
// ancestor, summed on every monitor tick — skips the per-leaf Matches test
// and, once the columnar frame is built, reads its value columns instead of
// the leaves; the additions and their order are the same, so the sums are
// identical. (One accumulator per sum: several, or a running total, would
// round differently.)
func (s *Snapshot) Sum(ac Combination) (actual, forecast float64) {
	if len(ac) == s.Schema.NumAttributes() && ac.Layer() == 0 {
		s.mu.Lock()
		f := s.frame
		s.mu.Unlock()
		if f != nil {
			fc := f.forecast[:len(f.actual)]
			for i, v := range f.actual {
				actual += v
				forecast += fc[i]
			}
			return actual, forecast
		}
		for i := range s.Leaves {
			actual += s.Leaves[i].Actual
			forecast += s.Leaves[i].Forecast
		}
		return actual, forecast
	}
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
	// Group names the group as GroupCount.Group does: its mixed-radix
	// group index, or — for a cuboid whose indexer overflows
	// (Size() < 0) — the index into Leaves of the group's first leaf.
	// Snapshot.DecodeGroup decodes either form into the group's
	// combination, so callers build combinations only for the groups they
	// keep.
	Group     int
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

// statsScratch pools the per-leaf group indexes and the dense accumulator
// arrays of GroupByAppend, so steady-state group-bys allocate nothing but
// their output.
type statsScratch struct {
	keys      []int32
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
// per-group statistics in a single pass over D. Only groups that actually
// occur in D are returned; the order is deterministic (ascending
// mixed-radix group index, which equals lexicographic code order). Each
// group's Actual and Forecast add its leaves' values in ascending leaf
// order.
//
// The leaves are grouped from the columnar store. Dense cuboids are
// accumulated in flat arrays indexed by group; a cuboid whose Cartesian
// size dwarfs the observed leaf count (very sparse data over a huge
// domain), or is too wide for int32 group indexes, is numbered by Group and
// accumulated over its compact groups.
func (s *Snapshot) GroupBy(c Cuboid) []GroupStats {
	return s.GroupByAppend(c, nil)
}

// GroupByAppend is GroupBy appending into dst (reusing its capacity after
// truncation to zero length), so callers scanning many cuboids can recycle
// one result buffer. The group indexes and accumulator arrays come from a
// sync.Pool, so steady-state group-bys allocate only when dst grows.
func (s *Snapshot) GroupByAppend(c Cuboid, dst []GroupStats) []GroupStats {
	dst = dst[:0]
	ix := s.Indexer(c)
	cols := s.Columns()
	size := ix.Size()
	if size < 0 || size > denseGroupByLimit(cols.n) {
		g := groupingPool.Get().(*Grouping)
		defer groupingPool.Put(g)
		s.Group(ix, g, nil)
		for _, name := range g.Names {
			dst = append(dst, GroupStats{Group: name})
		}
		actual, forecast := cols.Actual(), cols.Forecast()
		for i, grp := range g.Of {
			st := &dst[grp]
			st.Total++
			st.Actual += actual[i]
			st.Forecast += forecast[i]
		}
		for w, word := range cols.AnomalousBits() {
			for ; word != 0; word &= word - 1 {
				dst[g.Of[w<<6|bits.TrailingZeros64(word)]].Anomalous++
			}
		}
		return dst
	}
	sc := statsScratchPool.Get().(*statsScratch)
	sc.keys = resize(sc.keys, cols.n)
	cols.groupKeys(ix, 0, sc.keys)
	dst = sc.groupByDense(cols, size, dst)
	statsScratchPool.Put(sc)
	return dst
}

// groupByDense accumulates the leaves, whose group indexes are in sc.keys,
// in flat arrays over the cuboid's whole domain of size groups.
func (sc *statsScratch) groupByDense(cols *Columns, size int, dst []GroupStats) []GroupStats {
	sc.grow(size)
	actual, forecast := cols.Actual(), cols.Forecast()
	for i, g := range sc.keys {
		sc.total[g]++
		sc.actual[g] += actual[i]
		sc.forecast[g] += forecast[i]
	}
	for w, word := range cols.AnomalousBits() {
		for ; word != 0; word &= word - 1 {
			sc.anomalous[sc.keys[w<<6|bits.TrailingZeros64(word)]]++
		}
	}
	for g, n := range sc.total {
		if n == 0 {
			continue
		}
		dst = append(dst, GroupStats{
			Group:     g,
			Total:     int(n),
			Anomalous: int(sc.anomalous[g]),
			Actual:    sc.actual[g],
			Forecast:  sc.forecast[g],
		})
	}
	return dst
}

// denseGroupByLimit bounds the flat-array domain size relative to the
// observed leaf count: past it the dense paths waste more memory zeroing
// empty groups than sorting the distinct group indexes costs. It never
// exceeds math.MaxInt32, so a domain within it has int32 group indexes.
func denseGroupByLimit(leaves int) int {
	return min(max(64*leaves, 1<<16), math.MaxInt32)
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
