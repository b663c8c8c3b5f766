package kpi

import (
	"fmt"
	"math"
	"math/bits"
	"runtime/debug"
	"slices"
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
// domains are numbered by Group and counted on the calling goroutine.
// halt (when non-nil) is polled every haltStride leaves, and a scan it
// aborts returns (dst[:0], false) so callers never mistake a partial scan
// for a complete one. A panic on a scan worker is rethrown on the calling
// goroutine as a *ScanPanic carrying the worker's stack. The accumulators
// come from a sync.Pool, so steady-state scans allocate only when dst
// grows. Safe for concurrent use on one snapshot.
func (s *Snapshot) ScanCuboid(c Cuboid, dst []GroupCount, workers int, halt Halt) ([]GroupCount, bool) {
	dst = dst[:0]
	ix := s.Indexer(c)
	size := ix.Size()
	if size < 0 || size > denseGroupByLimit(len(s.Leaves)) {
		g := groupingPool.Get().(*Grouping)
		defer groupingPool.Put(g)
		if !s.Group(ix, g, halt) {
			return dst, false
		}
		for _, name := range g.Names {
			dst = append(dst, GroupCount{Group: name})
		}
		for _, grp := range g.Of {
			dst[grp].Total++
		}
		for w, word := range s.Columns().AnomalousBits() {
			for ; word != 0; word &= word - 1 {
				dst[g.Of[w<<6|bits.TrailingZeros64(word)]].Anomalous++
			}
		}
		return dst, true
	}
	buf := getAcc(2 * size)
	ok := s.scanDense(ix, (*buf)[:size], (*buf)[size:], workers, halt)
	if ok {
		dst = appendGroups(dst, (*buf)[:size], (*buf)[size:])
	}
	accPool.Put(buf)
	return dst, ok
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

// getAcc returns a pooled accumulator of n zeroed slots; the caller puts
// it back into accPool.
func getAcc(n int) *[]int32 {
	return getAccInto(accPool.Get().(*[]int32), n)
}

// getAccInto resizes buf, or a pooled accumulator when buf is nil, to n
// zeroed slots.
func getAccInto(buf *[]int32, n int) *[]int32 {
	if buf == nil {
		buf = accPool.Get().(*[]int32)
	}
	if cap(*buf) < n {
		*buf = make([]int32, n)
	} else {
		*buf = (*buf)[:n]
		clear(*buf)
	}
	return buf
}

// keyPool recycles the per-chunk group-key scratch of the dense scan (one
// int32 per leaf of a chunk).
var keyPool = sync.Pool{New: func() any {
	p := make([]int32, haltStride)
	return &p
}}

// scanDense counts the groups of ix's cuboid, whose domain must be dense,
// with one pass over the columnar leaf store, adding the total counts into
// tot and the anomalous counts into anm (both of the domain's size, and
// zeroed by the caller). halt (when non-nil) is polled before the pass and
// every haltStride leaves on each worker; a tripped halt returns false,
// leaving tot and anm partial.
func (s *Snapshot) scanDense(ix *CuboidIndexer, tot, anm []int32, workers int, halt Halt) bool {
	if halt != nil && halt() {
		return false
	}
	cols := s.Columns()
	n := cols.n
	parts := 1
	if workers > 1 && n >= 2*haltStride {
		parts = workers
		// Never split below one chunk per part: tiny ranges cost more in
		// goroutine handoff than they save in scan time.
		if mp := (n + haltStride - 1) / haltStride; parts > mp {
			parts = mp
		}
	}
	if parts == 1 {
		return cols.scanRange(ix, 0, n, tot, anm, halt)
	}
	return cols.scanParts(ix, tot, anm, parts, halt)
}

// scanParts runs the dense scan as parts workers over contiguous leaf
// ranges: worker 0 counts into tot and anm, worker p > 0 into its own
// pooled pair, which is then merged into them. Per-slot integer sums are
// order-independent, so the merged counts do not depend on parts.
func (c *Columns) scanParts(ix *CuboidIndexer, tot, anm []int32, parts int, halt Halt) bool {
	size := len(tot)
	buf := getAcc((parts - 1) * 2 * size)
	defer accPool.Put(buf)
	acc := *buf
	var aborted atomic.Bool
	n := c.n
	RunWorkers(parts, func(p int) {
		t, a := tot, anm
		if p > 0 {
			part := acc[(p-1)*2*size : p*2*size]
			t, a = part[:size], part[size:]
		}
		if !c.scanRange(ix, p*n/parts, (p+1)*n/parts, t, a, halt) {
			aborted.Store(true)
		}
	})
	if aborted.Load() {
		return false
	}
	for p := 1; p < parts; p++ {
		part := acc[(p-1)*2*size : p*2*size]
		for j, v := range part[:size] {
			tot[j] += v
		}
		for j, v := range part[size:] {
			anm[j] += v
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
// passes. Pass one computes every leaf's group key into the chunk-sized
// keys scratch (groupKeys) and bumps the total counts. Pass two adds the
// anomalous counts by walking the anomaly bitset a word at a time: full
// 64-leaf words iterate only their set bits (one TrailingZeros per
// anomalous leaf) instead of testing a bit per leaf, so the typical low
// anomaly rate makes the second pass nearly free.
func (c *Columns) accumulate(ix *CuboidIndexer, cs, ce int, tot, anm, keys []int32) {
	keys = keys[:ce-cs]
	c.groupKeys(ix, cs, keys)
	for _, k := range keys {
		tot[k]++
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

// Grouping numbers the leaves' groups in one cuboid; Snapshot.Group fills
// it, reusing its slices across calls.
type Grouping struct {
	// Of[i] is leaf i's group. Groups are numbered from 0 in ascending
	// group index, or in ascending projected combination when the cuboid's
	// indexer overflows.
	Of []int32
	// Names[g] names group g as Snapshot.DecodeGroup takes it: by its
	// mixed-radix group index, or by the index of its first leaf when the
	// cuboid's indexer overflows (Size() < 0).
	Names []int
	// seen is Group's scratch: the rank table of a dense domain, or the
	// sorted distinct group indexes of a sparse one.
	seen []int32
}

// groupingPool recycles the Groupings of the non-dense scans and group-bys.
var groupingPool = sync.Pool{New: func() any { return new(Grouping) }}

// Group numbers the leaves' groups in ix's cuboid into g, in ascending
// group index — the order of GroupBy and ScanCuboid. The group indexes come
// from the element columns; a domain within denseGroupByLimit is renumbered
// through a flat rank table, a wider one by sorting its distinct indexes.
// A cuboid too wide for int32 group indexes, or whose indexes overflow, is
// keyed by its leaves' projected elements instead (groupByKey). halt (when
// non-nil) is polled every haltStride leaves; a pass it aborts returns
// false and leaves g's contents unspecified. Safe for concurrent use on one
// snapshot, each caller with its own Grouping.
func (s *Snapshot) Group(ix *CuboidIndexer, g *Grouping, halt Halt) bool {
	cols := s.Columns()
	n, size := cols.n, ix.Size()
	if size < 0 || size > math.MaxInt32 {
		return cols.groupByKey(ix, g, halt)
	}
	g.Of = resize(g.Of, n)
	for lo := 0; lo < n; lo += haltStride {
		if halt != nil && halt() {
			return false
		}
		cols.groupKeys(ix, lo, g.Of[lo:min(lo+haltStride, n)])
	}
	g.Names = slices.Grow(g.Names[:0], min(n, size))
	if size <= denseGroupByLimit(n) {
		rank := resize(g.seen, size)
		clear(rank)
		for _, x := range g.Of {
			rank[x] = 1
		}
		for x, seen := range rank {
			if seen != 0 {
				rank[x] = int32(len(g.Names))
				g.Names = append(g.Names, x)
			}
		}
		for i, x := range g.Of {
			g.Of[i] = rank[x]
		}
		g.seen = rank
		return true
	}
	index := append(g.seen[:0], g.Of...)
	slices.Sort(index)
	index = slices.Compact(index)
	for _, x := range index {
		g.Names = append(g.Names, int(x))
	}
	for i, x := range g.Of {
		grp, _ := slices.BinarySearch(index, x)
		g.Of[i] = int32(grp)
	}
	g.seen = index
	return true
}

// groupByKey is Group for a cuboid too wide for int32 group indexes, or
// whose indexes overflow and collide: it keys each leaf's group by its
// projected elements, four big-endian bytes per cuboid attribute. Keys
// compare bytewise in the order of the group indexes of a cuboid that does
// not overflow, so sorting the groups by key keeps ascending group order.
func (c *Columns) groupByKey(ix *CuboidIndexer, g *Grouping, halt Halt) bool {
	var (
		first []int
		keys  []string
		buf   []byte
	)
	pos := make(map[string]int32, 64)
	g.Of = resize(g.Of, c.n)
	for i := range g.Of {
		if halt != nil && i%haltStride == 0 && halt() {
			return false
		}
		buf = buf[:0]
		for _, a := range ix.cuboid {
			e := c.frame.elem[a][i]
			buf = append(buf, byte(e>>24), byte(e>>16), byte(e>>8), byte(e))
		}
		grp, seen := pos[string(buf)]
		if !seen {
			k := string(buf)
			grp = int32(len(keys))
			pos[k] = grp
			keys = append(keys, k)
			first = append(first, i)
		}
		g.Of[i] = grp
	}
	// Renumber the groups, numbered so far in first-seen order, by key.
	byKey := make([]int32, len(keys))
	for grp := range byKey {
		byKey[grp] = int32(grp)
	}
	sort.Slice(byKey, func(a, b int) bool { return keys[byKey[a]] < keys[byKey[b]] })
	rank := make([]int32, len(keys))
	g.Names = g.Names[:0]
	for r, grp := range byKey {
		rank[grp] = int32(r)
		name := first[grp]
		if ix.Size() >= 0 {
			name = 0
			for t, a := range ix.cuboid {
				name += int(c.frame.elem[a][first[grp]]) * ix.strides[t]
			}
		}
		g.Names = append(g.Names, name)
	}
	for i, grp := range g.Of {
		g.Of[i] = rank[grp]
	}
	return true
}

// resize returns s with length n, reusing its capacity; the contents are
// unspecified.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// groupKeys writes the group index of leaves [lo, lo+len(keys)) into keys,
// specialized by arity, since the mixed-radix key of a layer-ℓ cuboid has
// ℓ terms. The cuboid's Size must fit an int32.
func (c *Columns) groupKeys(ix *CuboidIndexer, lo int, keys []int32) {
	elem, attrs, strides := c.frame.elem, ix.cuboid, ix.strides
	hi := lo + len(keys)
	switch len(attrs) {
	case 1:
		col0 := elem[attrs[0]][lo:hi]
		s0 := int32(strides[0])
		for i, e := range col0 {
			keys[i] = int32(e) * s0
		}
	case 2:
		col0, col1 := elem[attrs[0]][lo:hi], elem[attrs[1]][lo:hi]
		s0, s1 := int32(strides[0]), int32(strides[1])
		for i := range keys {
			keys[i] = int32(col0[i])*s0 + int32(col1[i])*s1
		}
	case 3:
		col0, col1, col2 := elem[attrs[0]][lo:hi], elem[attrs[1]][lo:hi], elem[attrs[2]][lo:hi]
		s0, s1, s2 := int32(strides[0]), int32(strides[1]), int32(strides[2])
		for i := range keys {
			keys[i] = int32(col0[i])*s0 + int32(col1[i])*s1 + int32(col2[i])*s2
		}
	default:
		for i := range keys {
			var k int32
			for t, a := range attrs {
				k += int32(elem[a][lo+i]) * int32(strides[t])
			}
			keys[i] = k
		}
	}
}

// ScanPanic wraps a panic captured on a worker goroutine of RunWorkers (a
// scan worker or a caller's) so it can be rethrown on the calling goroutine
// with the worker's stack intact (a goroutine's panic cannot be recovered
// by its parent directly).
type ScanPanic struct {
	Val   any
	Stack []byte
}

func (p *ScanPanic) String() string {
	return fmt.Sprintf("%v (from kpi worker)", p.Val)
}

// scanTrap captures the first worker panic of a pool.
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

// RunWorkers runs work(0) … work(workers-1), each on its own goroutine,
// and returns once all have returned. The first panic on a worker is
// rethrown on the calling goroutine as a *ScanPanic carrying the worker's
// stack, so a caller's recover sees it. With one worker (or fewer), work(0)
// runs on the calling goroutine and a panic propagates as is.
func RunWorkers(workers int, work func(worker int)) {
	if workers <= 1 {
		work(0)
		return
	}
	var (
		wg   sync.WaitGroup
		trap scanTrap
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer trap.capture()
			work(w)
		}()
	}
	wg.Wait()
	trap.rethrow()
}

// DecodeGroup writes into dst, which must have the schema's attribute
// count, the projected combination of a group a scan or group-by of ix's
// cuboid returned (GroupCount.Group, GroupStats.Group). It is the one way
// callers turn a group into a combination, so they build combinations only
// for the groups they keep.
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
