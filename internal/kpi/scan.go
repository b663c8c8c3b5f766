package kpi

import (
	"sort"
	"sync"
)

// GroupCount is one non-empty group of a count-only cuboid scan: the dense
// group index within the cuboid (CuboidIndexer order) plus the support
// counts behind Criteria 2. It carries no materialized Combination — decode
// the group index through the cuboid's indexer only for the rare groups
// that become candidates.
type GroupCount struct {
	// Group is the dense group index within the cuboid. For a cuboid whose
	// indexer overflows (Size() < 0) mixed-radix indexes wrap and collide,
	// so ScanCuboid keys its groups by projected combination instead and
	// Group holds the index into Leaves of the group's first leaf.
	// Snapshot.DecodeGroup decodes either form.
	Group int
	// Total and Anomalous are support_count_D(ac) and
	// support_count_D(ac, Anomaly) for the group's combination.
	Total, Anomalous int
}

// Confidence returns the group's anomaly confidence (Criteria 2), the same
// division GroupStats.Confidence performs.
func (g GroupCount) Confidence() float64 {
	if g.Total == 0 {
		return 0
	}
	return float64(g.Anomalous) / float64(g.Total)
}

// countScratch pools the dense accumulator arrays of ScanCuboid.
type countScratch struct {
	total     []int32
	anomalous []int32
}

var countScratchPool = sync.Pool{New: func() any { return new(countScratch) }}

func (sc *countScratch) grow(n int) {
	if cap(sc.total) < n {
		sc.total = make([]int32, n)
		sc.anomalous = make([]int32, n)
		return
	}
	sc.total = sc.total[:n]
	sc.anomalous = sc.anomalous[:n]
	clear(sc.total)
	clear(sc.anomalous)
}

// Halt is a cancellation hook polled by long scans: returning true aborts
// the scan. Implementations must be cheap (an atomic load or a deadline
// comparison) and safe for concurrent use — one Halt may be polled from
// several scan workers at once.
type Halt func() bool

// haltStride is how many leaves a scan processes between Halt polls: large
// enough that the poll is free next to the scan work, small enough that a
// multi-million-leaf snapshot still aborts within a fraction of a
// millisecond of the hook tripping.
const haltStride = 4096

// ScanCuboid computes the count-only group-by of one cuboid, appending into
// dst (reusing its capacity after truncation to zero length). Groups are
// returned in ascending group index — the same deterministic order as
// GroupBy — with identical Total/Anomalous counts; only the aggregate KPI
// sums and materialized Combinations are omitted. The accumulators come
// from a sync.Pool, so steady-state scans allocate only when dst grows.
// Safe for concurrent use on one snapshot.
func (s *Snapshot) ScanCuboid(c Cuboid, dst []GroupCount) []GroupCount {
	out, _ := s.ScanCuboidHalt(c, dst, nil)
	return out
}

// ScanCuboidHalt is ScanCuboid with a cancellation hook: halt (when non-nil)
// is polled every haltStride leaves, and a scan it aborts returns
// (dst[:0], false) so callers never mistake a partial scan for a complete
// one. A nil halt never aborts and the result is identical to ScanCuboid.
func (s *Snapshot) ScanCuboidHalt(c Cuboid, dst []GroupCount, halt Halt) ([]GroupCount, bool) {
	dst = dst[:0]
	ix := s.Indexer(c)
	if size := ix.Size(); size < 0 || size > denseGroupByLimit(len(s.Leaves)) {
		return s.scanSparse(ix, dst, halt)
	}
	sc := countScratchPool.Get().(*countScratch)
	sc.grow(ix.Size())
	total, anomalous := sc.total, sc.anomalous
	for i := range s.Leaves {
		if halt != nil && i%haltStride == 0 && i > 0 && halt() {
			countScratchPool.Put(sc)
			return dst, false
		}
		l := &s.Leaves[i]
		g := ix.Index(l.Combo)
		total[g]++
		if l.Anomalous {
			anomalous[g]++
		}
	}
	for g, n := range total {
		if n == 0 {
			continue
		}
		dst = append(dst, GroupCount{Group: g, Total: int(n), Anomalous: int(anomalous[g])})
	}
	countScratchPool.Put(sc)
	return dst, true
}

// DecodeGroup writes into dst, which must have the schema's attribute
// count, the projected combination of a group a scan of ix's cuboid
// returned.
func (s *Snapshot) DecodeGroup(ix *CuboidIndexer, group int, dst Combination) {
	if ix.Size() >= 0 {
		ix.DecodeInto(dst, group)
		return
	}
	leaf := s.Leaves[group].Combo
	for i := range dst {
		dst[i] = Wildcard
	}
	for _, a := range ix.cuboid {
		dst[a] = leaf[a]
	}
}

// scanSparse is the map-based scan used for huge sparse domains.
func (s *Snapshot) scanSparse(ix *CuboidIndexer, dst []GroupCount, halt Halt) ([]GroupCount, bool) {
	if ix.Size() < 0 {
		return s.scanOverflow(ix, dst, halt)
	}
	pos := make(map[int]int32, 64)
	for i := range s.Leaves {
		if halt != nil && i%haltStride == 0 && i > 0 && halt() {
			return dst[:0], false
		}
		l := &s.Leaves[i]
		g := ix.Index(l.Combo)
		p, ok := pos[g]
		if !ok {
			p = int32(len(dst))
			pos[g] = p
			dst = append(dst, GroupCount{Group: g})
		}
		gc := &dst[p]
		gc.Total++
		if l.Anomalous {
			gc.Anomalous++
		}
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i].Group < dst[j].Group })
	return dst, true
}

// scanOverflow is scanSparse for a cuboid whose group indexes overflow:
// groups come from GroupLeaves, each reported by its first leaf.
func (s *Snapshot) scanOverflow(ix *CuboidIndexer, dst []GroupCount, halt Halt) ([]GroupCount, bool) {
	groupOf, first, ok := s.GroupLeaves(ix, halt)
	if !ok {
		return dst[:0], false
	}
	for _, i := range first {
		dst = append(dst, GroupCount{Group: i})
	}
	for i, g := range groupOf {
		dst[g].Total++
		if s.Leaves[i].Anomalous {
			dst[g].Anomalous++
		}
	}
	return dst, true
}

// GroupLeaves groups the leaves by their projection onto ix's cuboid, keyed
// by the projected combination — the keying for
// cuboids whose Size() < 0, where Index wraps and distinct groups collide.
// Groups are numbered in ascending key order, the order their group indexes
// would have: groupOf[i] is leaf i's group and first[g] the index of group
// g's first leaf. halt, when non-nil, is polled every haltStride leaves; a
// pass it aborts returns ok=false.
func (s *Snapshot) GroupLeaves(ix *CuboidIndexer, halt Halt) (groupOf []int32, first []int, ok bool) {
	pos := make(map[string]int32, 64)
	var keys []string
	var buf []byte
	groupOf = make([]int32, len(s.Leaves))
	for i := range s.Leaves {
		if halt != nil && i%haltStride == 0 && i > 0 && halt() {
			return nil, nil, false
		}
		buf = ix.appendKey(buf[:0], s.Leaves[i].Combo)
		g, seen := pos[string(buf)]
		if !seen {
			k := string(buf)
			g = int32(len(keys))
			pos[k] = g
			keys = append(keys, k)
			first = append(first, i)
		}
		groupOf[i] = g
	}
	// Renumber the groups, numbered so far in first-seen order, by key.
	byKey := make([]int32, len(keys))
	for g := range byKey {
		byKey[g] = int32(g)
	}
	sort.Slice(byKey, func(a, b int) bool { return keys[byKey[a]] < keys[byKey[b]] })
	rank := make([]int32, len(keys))
	sorted := make([]int, len(keys))
	for r, g := range byKey {
		rank[g] = int32(r)
		sorted[r] = first[g]
	}
	for i, g := range groupOf {
		groupOf[i] = rank[g]
	}
	return groupOf, sorted, true
}
