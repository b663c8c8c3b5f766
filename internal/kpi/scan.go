package kpi

import (
	"fmt"
	"math/bits"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
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

// Halt is a cancellation hook polled by long scans: returning true aborts
// the scan. Implementations must be cheap (an atomic load or a deadline
// comparison) and safe for concurrent use — one Halt may be polled from
// several scan workers at once.
type Halt func() bool

// haltStride is how many leaves a scan processes between Halt polls: large
// enough that the poll is free next to the scan work, small enough that a
// multi-million-leaf snapshot still aborts within a fraction of a
// millisecond of the hook tripping. The dense scan also works in chunks of
// this many leaves, the length of its per-chunk group-key scratch.
const haltStride = 4096

// ScanCuboid computes the count-only group-by of cuboid c, appending into
// dst (reusing its capacity after truncation to zero length). Groups are
// returned in ascending group index — the same deterministic order as
// GroupBy — with identical Total/Anomalous counts; only the aggregate KPI
// sums and materialized Combinations are omitted.
//
// A dense domain (Size() at most denseGroupByLimit) is counted by one pass
// over the columnar leaf store, partitioned across workers goroutines by
// contiguous leaf range; the per-range counts merge by integer addition, so
// the result is identical at any worker count. Sparse and overflowing
// domains take a map-based pass on the calling goroutine. halt (when
// non-nil) is polled every haltStride leaves, and a scan it aborts returns
// (dst[:0], false) so callers never mistake a partial scan for a complete
// one. A panic on a scan worker is rethrown on the calling goroutine as a
// *ScanPanic carrying the worker's stack. The accumulators come from a
// sync.Pool, so steady-state scans allocate only when dst grows. Safe for
// concurrent use on one snapshot.
func (s *Snapshot) ScanCuboid(c Cuboid, dst []GroupCount, workers int, halt Halt) ([]GroupCount, bool) {
	dst = dst[:0]
	ix := s.Indexer(c)
	size := ix.Size()
	if size < 0 || size > denseGroupByLimit(len(s.Leaves)) {
		return s.scanSparse(ix, dst, halt)
	}
	buf, ok := s.scanDense(ix, workers, halt)
	if !ok {
		return dst, false
	}
	dst = appendGroups(dst, (*buf)[:size], (*buf)[size:2*size])
	accPool.Put(buf)
	return dst, true
}

// appendGroups appends the non-empty groups of dense count arrays to dst,
// in ascending group index.
func appendGroups(dst []GroupCount, tot, anm []int32) []GroupCount {
	for g, v := range tot {
		if v == 0 {
			continue
		}
		dst = append(dst, GroupCount{Group: g, Total: int(v), Anomalous: int(anm[g])})
	}
	return dst
}

// accPool recycles the dense accumulator arrays across scans and runs.
var accPool = sync.Pool{New: func() any { return new([]int32) }}

// keyPool recycles the per-chunk group-key scratch of the dense scan (one
// int32 per leaf of a chunk).
var keyPool = sync.Pool{New: func() any {
	p := make([]int32, haltStride)
	return &p
}}

// scanDense counts the groups of ix's cuboid, whose domain must be dense,
// with one pass over the columnar leaf store. The returned pooled buffer
// holds the merged total counts at [0, size) and the anomalous counts at
// [size, 2·size); the caller puts it back into accPool. halt (when non-nil)
// is polled before the pass and every haltStride leaves on each worker; a
// tripped halt discards the partial counts and returns false.
func (s *Snapshot) scanDense(ix *CuboidIndexer, workers int, halt Halt) (*[]int32, bool) {
	if halt != nil && halt() {
		return nil, false
	}
	cols := s.Columns()
	n, size := cols.n, ix.Size()
	parts := 1
	if workers > 1 && n >= 2*haltStride {
		parts = workers
		// Never split below one chunk per part: tiny ranges cost more in
		// goroutine handoff than they save in scan time.
		if mp := (n + haltStride - 1) / haltStride; parts > mp {
			parts = mp
		}
	}
	buf := accPool.Get().(*[]int32)
	if need := parts * 2 * size; cap(*buf) < need {
		*buf = make([]int32, need)
	} else {
		*buf = (*buf)[:need]
		clear(*buf)
	}
	acc := *buf
	var ok bool
	if parts == 1 {
		ok = cols.scanRange(ix, 0, n, acc[:size], acc[size:], halt)
	} else {
		ok = cols.scanParts(ix, acc, size, parts, halt)
	}
	if !ok {
		accPool.Put(buf)
		return nil, false
	}
	return buf, true
}

// scanParts runs the dense scan as parts workers over contiguous leaf
// ranges, worker p counting into acc[2p·size, 2(p+1)·size), then merges
// every part into the first. Per-slot integer sums are order-independent,
// so the merged counts do not depend on parts.
func (c *Columns) scanParts(ix *CuboidIndexer, acc []int32, size, parts int, halt Halt) bool {
	var (
		wg      sync.WaitGroup
		aborted atomic.Bool
		trap    scanTrap
	)
	n := c.n
	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer trap.capture()
			part := acc[p*2*size : (p+1)*2*size]
			if !c.scanRange(ix, p*n/parts, (p+1)*n/parts, part[:size], part[size:], halt) {
				aborted.Store(true)
			}
		}(p)
	}
	wg.Wait()
	trap.rethrow()
	if aborted.Load() {
		return false
	}
	for p := 1; p < parts; p++ {
		part := acc[p*2*size : (p+1)*2*size]
		for j, v := range part {
			acc[j] += v
		}
	}
	return true
}

// scanRange accumulates leaves [lo, hi) of ix's cuboid into tot and anm,
// one haltStride chunk at a time, polling halt between chunks.
func (c *Columns) scanRange(ix *CuboidIndexer, lo, hi int, tot, anm []int32, halt Halt) bool {
	kp := keyPool.Get().(*[]int32)
	defer keyPool.Put(kp)
	for cs := lo; cs < hi; cs += haltStride {
		if halt != nil && cs > lo && halt() {
			return false
		}
		c.accumulate(ix, cs, min(cs+haltStride, hi), tot, anm, *kp)
	}
	return true
}

// accumulate adds leaves [cs, ce) into the cuboid's count arrays in two
// passes. Pass one computes every leaf's group key — specialized by arity,
// since the mixed-radix key of a layer-ℓ cuboid has ℓ terms — bumping the
// total counts and recording the keys into the chunk-sized keys scratch.
// Pass two adds the anomalous counts by walking the anomaly bitset a word
// at a time: full 64-leaf words iterate only their set bits (one
// TrailingZeros per anomalous leaf) instead of testing a bit per leaf, so
// the typical low anomaly rate makes the second pass nearly free.
func (c *Columns) accumulate(ix *CuboidIndexer, cs, ce int, tot, anm, keys []int32) {
	elem, attrs, strides := c.frame.elem, ix.cuboid, ix.strides
	switch len(attrs) {
	case 1:
		col0 := elem[attrs[0]]
		s0 := int32(strides[0])
		for i := cs; i < ce; i++ {
			k := int32(col0[i]) * s0
			tot[k]++
			keys[i-cs] = k
		}
	case 2:
		col0, col1 := elem[attrs[0]], elem[attrs[1]]
		s0, s1 := int32(strides[0]), int32(strides[1])
		for i := cs; i < ce; i++ {
			k := int32(col0[i])*s0 + int32(col1[i])*s1
			tot[k]++
			keys[i-cs] = k
		}
	case 3:
		col0, col1, col2 := elem[attrs[0]], elem[attrs[1]], elem[attrs[2]]
		s0, s1, s2 := int32(strides[0]), int32(strides[1]), int32(strides[2])
		for i := cs; i < ce; i++ {
			k := int32(col0[i])*s0 + int32(col1[i])*s1 + int32(col2[i])*s2
			tot[k]++
			keys[i-cs] = k
		}
	default:
		for i := cs; i < ce; i++ {
			var k int32
			for t, a := range attrs {
				k += int32(elem[a][i]) * int32(strides[t])
			}
			tot[k]++
			keys[i-cs] = k
		}
	}

	// Anomalous counts: leading and trailing partial words test bit by bit,
	// the aligned middle drains set bits word at a time.
	anomBits := c.anom
	i := cs
	for ; i < ce && i&63 != 0; i++ {
		if anomBits[i>>6]>>(uint(i)&63)&1 != 0 {
			anm[keys[i-cs]]++
		}
	}
	for ; i+64 <= ce; i += 64 {
		off := i - cs
		for w := anomBits[i>>6]; w != 0; w &= w - 1 {
			anm[keys[off+bits.TrailingZeros64(w)]]++
		}
	}
	for ; i < ce; i++ {
		if anomBits[i>>6]>>(uint(i)&63)&1 != 0 {
			anm[keys[i-cs]]++
		}
	}
}

// ScanPanic wraps a panic captured on a scan worker goroutine so it can be
// rethrown on the calling goroutine with the worker's stack intact (a
// goroutine's panic cannot be recovered by its parent directly).
type ScanPanic struct {
	Val   any
	Stack []byte
}

func (p *ScanPanic) String() string {
	return fmt.Sprintf("%v (from kpi scan worker)", p.Val)
}

// scanTrap captures the first worker panic of a scan pool.
type scanTrap struct {
	once sync.Once
	sp   *ScanPanic
}

// capture must be deferred inside each worker goroutine.
func (t *scanTrap) capture() {
	if r := recover(); r != nil {
		t.once.Do(func() { t.sp = &ScanPanic{Val: r, Stack: debug.Stack()} })
	}
}

// rethrow re-panics on the calling goroutine after the pool's Wait.
func (t *scanTrap) rethrow() {
	if t.sp != nil {
		panic(t.sp)
	}
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
