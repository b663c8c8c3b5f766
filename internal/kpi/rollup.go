package kpi

// RollupPlan serves a whole search's cuboid schedule from one pass over
// the leaves: it scans the leaves ONCE into the flat (total, anomalous)
// accumulators of a single base cuboid — the finest materializable cuboid
// of the search's surviving attributes — and then serves every cuboid that
// coarsens the base by memoized marginalization over that array: pure
// integer arithmetic, zero further leaf reads.
//
// The roll-up is exact, not approximate. A cuboid c ⊆ base partitions the
// base's Cartesian groups — every base group projects onto exactly one
// group of c — and the counts are plain integers, so summing base slots
// into c's slots reproduces precisely the counts a direct scan of c would
// have produced, in the same ascending group order. Integer addition
// commutes, so the result is also independent of how the base pass itself
// was partitioned across workers: the search's determinism contract
// (bit-identical results at any worker count) carries over unchanged.
//
// The base pass is the dense kernel behind ScanCuboid — chunked halt
// polling, worker partitioning by contiguous leaf range with exact integer
// merge, and ScanPanic trapping. Cuboids that constrain an attribute
// outside the base (the attribute was too wide to materialize) are not
// served; callers scan those with ScanCuboid.
//
// A RollupPlan is built and consumed by one goroutine (the search's merge
// goroutine); it is not safe for concurrent use.
type RollupPlan struct {
	snap *Snapshot
	// base is the materialized cuboid, a subsequence of the attrs given to
	// NewRollupPlan; cards are its per-position cardinalities and size
	// their product.
	base  Cuboid
	cards []int
	size  int
	// buf is the base pass's pooled accumulator buffer (totals then
	// anomalous counts), nil until Run succeeds.
	buf *[]int32
	// marg memoizes the marginal accumulators computed so far, keyed by the
	// bitmask of retained base positions. The full mask aliases the base
	// accumulators; coarser masks are derived on demand (see marginal) and
	// reused across every cuboid of every later layer that refines them.
	marg map[uint32]*marginal
}

// marginal is one materialized projection of the base accumulators onto a
// subset of its attributes, laid out in the projection's own mixed-radix
// group order (identical to the CuboidIndexer layout for that cuboid).
type marginal struct {
	tot, anm []int32
}

// defaultRollupLimit bounds the base accumulator size relative to the
// observed leaf count. Serving a cuboid costs one arithmetic walk of the
// base array, so the base must stay within a small multiple of the leaf
// count for the roll-up to beat rescanning the leaves; past 2x the walk
// spends more time skipping empty slots than a scan spends reading
// columns. The floor keeps small snapshots from refusing a base that
// costs next to nothing either way.
func defaultRollupLimit(leaves int) int {
	const floor = 1 << 12
	if limit := 2 * leaves; limit > floor {
		return limit
	}
	return floor
}

// NewRollupPlan picks the finest materializable base cuboid over attrs
// (given in search order) and returns a plan for it, or nil when no base
// worth materializing exists.
func (s *Snapshot) NewRollupPlan(attrs []int) *RollupPlan {
	return s.newRollupPlan(attrs, defaultRollupLimit(len(s.Leaves)))
}

// newRollupPlan is NewRollupPlan with the base's Cartesian size capped at
// limit accumulator slots.
//
// The base is chosen greedily by ascending cardinality: admitting narrow
// attributes first maximizes how many attributes — and therefore how many
// of the layer schedule's cuboids — the base covers. A base must span at
// least two attributes: a single-attribute base serves only itself, so
// materializing it saves nothing over scanning that cuboid directly.
func (s *Snapshot) newRollupPlan(attrs []int, limit int) *RollupPlan {
	if len(attrs) < 2 {
		return nil
	}
	// Order candidate attributes by ascending cardinality, ties broken by
	// search order so the choice is deterministic.
	order := make([]int, len(attrs))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := attrs[order[j-1]], attrs[order[j]]
			if s.Schema.Cardinality(a) <= s.Schema.Cardinality(b) {
				break
			}
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	in := make([]bool, len(attrs))
	size := 1
	for _, i := range order {
		card := s.Schema.Cardinality(attrs[i])
		if card <= 0 || size > limit/card {
			continue
		}
		size *= card
		in[i] = true
	}
	var base Cuboid
	for i, ok := range in {
		if ok {
			base = append(base, attrs[i])
		}
	}
	if len(base) < 2 {
		return nil
	}
	p := &RollupPlan{
		snap:  s,
		base:  base,
		cards: make([]int, len(base)),
		size:  size,
	}
	for i, a := range base {
		p.cards[i] = s.Schema.Cardinality(a)
	}
	return p
}

// Base returns the materialized cuboid, a subsequence of the attrs the
// plan was built over.
func (p *RollupPlan) Base() Cuboid { return p.base }

// Serves reports whether cuboid c can be answered from the base by pure
// roll-up: every attribute c constrains must be in the base. c must list
// its attributes in the same relative order as the attrs the plan was
// built over (CuboidsAtLayer guarantees this).
func (p *RollupPlan) Serves(c Cuboid) bool {
	q := 0
	for _, a := range p.base {
		if q < len(c) && c[q] == a {
			q++
		}
	}
	return q == len(c)
}

// Run executes the base pass across workers goroutines, polling halt every
// few thousand leaves. It returns false — and the plan must be discarded —
// when the halt tripped mid-pass; partial counts are never served. A panic
// on a scan worker is rethrown on the calling goroutine as a *ScanPanic.
func (p *RollupPlan) Run(workers int, halt Halt) bool {
	buf, ok := p.snap.scanDense(p.snap.Indexer(p.base), workers, halt)
	if !ok {
		return false
	}
	p.buf = buf
	full := uint32(1)<<len(p.base) - 1
	p.marg = map[uint32]*marginal{full: {tot: (*buf)[:p.size], anm: (*buf)[p.size : 2*p.size]}}
	return true
}

// Groups appends cuboid c's non-empty groups into dst (reusing its
// capacity after truncation to zero length), in ascending group index —
// byte-for-byte the output ScanCuboid would produce — by rolling the base
// accumulators up into c's domain. Valid only after Run returned true and
// when Serves(c) is true.
//
// Serving is memoized marginalization: c maps to the bitmask of base
// positions it retains, and the marginal for that mask is computed once per
// run by summing one attribute at a time out of the nearest already-cached
// finer marginal (contiguous strided loops, no leaf reads), then reused by
// every later cuboid that refines it. Because the counts are exact integers
// the marginalization order is irrelevant to the result, so the output is
// independent of both the call order and the worker count of the base pass.
func (p *RollupPlan) Groups(c Cuboid, dst []GroupCount) []GroupCount {
	dst = dst[:0]
	if p.snap.Len() == 0 {
		// An empty snapshot has no groups; skip the marginal walk entirely.
		return dst
	}
	// Map c onto the bitmask of base positions it retains. Both cuboids
	// order attributes the same way, so one synchronized walk pairs them up.
	var mask uint32
	q := 0
	for pos, a := range p.base {
		if q < len(c) && c[q] == a {
			mask |= 1 << pos
			q++
		}
	}
	m := p.marginal(mask)
	return appendGroups(dst, m.tot, m.anm)
}

// marginal returns the accumulators projected onto the base positions in
// mask, computing and caching them on first use. A missing marginal is
// derived from the parent one attribute finer — the missing position with
// the smallest cardinality is summed out first, which keeps every parent in
// the chain as small as possible — so the total arithmetic for a whole
// layer schedule is a few strided passes over arrays no larger than the
// base, instead of one full base walk per cuboid.
func (p *RollupPlan) marginal(mask uint32) *marginal {
	if m, ok := p.marg[mask]; ok {
		return m
	}
	drop := -1
	for pos, card := range p.cards {
		if mask&(1<<pos) != 0 {
			continue
		}
		if drop < 0 || card < p.cards[drop] {
			drop = pos
		}
	}
	parent := p.marginal(mask | 1<<uint(drop))
	// The parent's layout splits around the dropped position as
	// (P, C, Q): P groups of C runs of Q contiguous slots, where slot
	// (i, j, q) of the parent folds into slot (i, q) of the child.
	pre, mid, post := 1, p.cards[drop], 1
	for pos, card := range p.cards {
		if mask&(1<<pos) == 0 {
			continue
		}
		if pos < drop {
			pre *= card
		} else {
			post *= card
		}
	}
	m := &marginal{
		tot: make([]int32, pre*post),
		anm: make([]int32, pre*post),
	}
	for i := 0; i < pre; i++ {
		src := i * mid * post
		dt := m.tot[i*post : (i+1)*post]
		da := m.anm[i*post : (i+1)*post]
		for j := 0; j < mid; j++ {
			st := parent.tot[src : src+post]
			sa := parent.anm[src : src+post]
			for q := range st {
				dt[q] += st[q]
				da[q] += sa[q]
			}
			src += post
		}
	}
	p.marg[mask] = m
	return m
}

// Close returns the base accumulators to their pool and drops the cached
// marginals. The plan must not be used afterwards.
func (p *RollupPlan) Close() {
	if p.buf != nil {
		accPool.Put(p.buf)
	}
	p.buf, p.marg = nil, nil
}
