package kpi

import "slices"

// RollupPlan serves a whole search's cuboid schedule from the counts of a
// single base cuboid — the finest materializable cuboid of the search's
// surviving attributes — by memoized marginalization: pure integer
// arithmetic, no further leaf reads.
//
// The two counts of Criteria 2 live apart, split by lifetime:
//
//   - The totals, support_count(ac), depend only on which leaves exist.
//     They are kept on the snapshot's label-independent side
//     (rollupTotals): the base's per-group leaf counts and every marginal
//     derived from them, for one base at a time. Relabel, RelabelTouched,
//     Rewrite and an update-only ApplyDelta leave them as they are; an
//     ApplyDelta that adds or removes leaves patches each kept slot by ±1.
//   - The anomalous counts, support_count(ac, Anomaly), belong to one run.
//     A run that reuses the kept totals counts them from the A anomalous
//     leaves (AnomalousLeafSet) through the element columns: per served
//     cuboid, O(A·|c|) instead of O(N), or — for a large incident — once
//     for the base and then by marginalization (see countAnomalous).
//
// A run on a snapshot without kept totals for its base makes one fused
// pass over the leaves that counts both and, on a snapshot ApplyDelta
// patches, seeds the store (see Run).
//
// The roll-up is exact, not approximate. A cuboid c ⊆ base partitions the
// base's Cartesian groups — every base group projects onto exactly one
// group of c — and the counts are plain integers, so summing base slots
// into c's slots, or counting c's anomalous leaves directly, reproduces
// precisely the counts a direct scan of c would have produced, in the same
// ascending group order. Integer addition commutes, so the result is also
// independent of how the base pass was partitioned across workers and of
// which source served a count: the search's determinism contract
// (bit-identical results at any worker count) carries over unchanged.
//
// The base pass is the dense kernel behind ScanCuboid — chunked halt
// polling, worker partitioning by contiguous leaf range with exact integer
// merge, and ScanPanic trapping. Cuboids that constrain an attribute
// outside the base (the attribute was too wide to materialize) are not
// served; callers scan those with ScanCuboid.
//
// A RollupPlan is built and consumed by one goroutine (the search's merge
// goroutine); it is not safe for concurrent use. Plans on one snapshot may
// run concurrently: they share the snapshot's totals under its mutex.
type RollupPlan struct {
	snap *Snapshot
	// base is the materialized cuboid, a subsequence of the attrs given to
	// NewRollupPlan; cards are its per-position cardinalities and size
	// their product.
	base  Cuboid
	cards []int
	size  int
	// totals serves this run's totals: the snapshot's kept entry, the one
	// Run's base pass seeded, or the pass's own when it keeps nothing. nil
	// until Run succeeds. kept reports that it is the snapshot's entry,
	// which concurrent runs share under the snapshot's mutex.
	totals *rollupTotals
	kept   bool
	// scanned reports that Run read the leaves.
	scanned bool
	// anomIdx lists the snapshot's anomalous leaves and elem its element
	// columns, from which a run that reused the totals counts anomalous
	// groups; direct reports that it counts each cuboid's directly.
	anomIdx []int
	elem    [][]uint32
	direct  bool
	// anm memoizes this run's anomalous-count marginals, keyed like the
	// totals by the bitmask of retained base positions. The full mask holds
	// the base's anomalous counts, from the base pass or from the anomalous
	// leaves; it is empty when direct.
	anm map[uint32][]int32
	// buf backs anm's full mask (and, when the run keeps nothing, the
	// totals) and scratch the direct counts; both are pooled and nil until
	// used.
	buf, scratch *[]int32
}

// rollupTotals is the label-independent half of the roll-up: the per-group
// leaf counts of one base cuboid and the marginals derived from them.
type rollupTotals struct {
	base  Cuboid
	cards []int
	// gen is the snapshot generation the base pass counted.
	gen uint64
	// marg maps a bitmask of retained base positions to that marginal's
	// counts, in the projection's own mixed-radix group order (identical
	// to the CuboidIndexer layout for that cuboid). The full mask holds
	// the base pass's counts. Guarded by the snapshot's mutex; readers
	// read an array outside it, which only ApplyDelta patches.
	marg map[uint32][]int32
}

// patch adds d to the slot of the leaf combo in every marginal; the
// snapshot's mutex must be held.
func (t *rollupTotals) patch(combo Combination, d int32) {
	for mask, m := range t.marg {
		k, stride := 0, 1
		for pos := len(t.base) - 1; pos >= 0; pos-- {
			if mask&(1<<pos) != 0 {
				k += int(combo[t.base[pos]]) * stride
				stride *= t.cards[pos]
			}
		}
		m[k] += d
	}
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

// Run makes the plan's counts available, reporting false — and the plan
// must be discarded — when halt tripped mid-pass; partial counts are never
// served. When the snapshot keeps the totals of this base from an earlier
// generation, Run reads no leaf. Otherwise it executes the fused base pass
// across workers goroutines, polling halt every few thousand leaves. A
// panic on a scan worker is rethrown on the calling goroutine as a
// *ScanPanic.
//
// The pass seeds the snapshot's totals only on a snapshot ApplyDelta has
// patched, the one writer that marks a world kept across ticks (it builds
// the leaf positions, which nothing else does): the next tick reuses them.
// Any other snapshot — a one-shot request, a labeled or rewritten copy, a
// fresh clone — is searched once or a few times in one generation, so the
// pass counts into pooled arrays and keeps nothing. Totals counted in the
// snapshot's current generation are not reused: every search of one
// generation reads the leaves, or every one reuses, so repeated searches
// of an unchanged snapshot journal the same Diagnostics.
func (p *RollupPlan) Run(workers int, halt Halt) bool {
	s := p.snap
	s.mu.Lock()
	var t *rollupTotals
	if f := s.frame; f != nil && f.totals != nil && f.totals.gen != s.gen && slices.Equal(f.totals.base, p.base) {
		t = f.totals
	}
	gen, seed := s.gen, s.leafPos != nil
	s.mu.Unlock()
	if t != nil {
		p.kept = true
		return p.countAnomalous(t, halt)
	}
	// A seeding pass counts its totals straight into the array the store
	// keeps; the anomalous counts are this run's alone.
	var buf *[]int32
	var tot, anm []int32
	if seed {
		buf = getAcc(p.size)
		tot, anm = make([]int32, p.size), *buf
	} else {
		buf = getAcc(2 * p.size)
		tot, anm = (*buf)[:p.size], (*buf)[p.size:]
	}
	if !s.scanDense(s.Indexer(p.base), tot, anm, workers, halt) {
		accPool.Put(buf)
		return false
	}
	full := p.fullMask()
	t = &rollupTotals{base: p.base, cards: p.cards, gen: gen, marg: map[uint32][]int32{full: tot}}
	if seed {
		// Stored only when no write landed during the pass (the same
		// re-check colFrameCached makes); the run serves from t either way.
		s.mu.Lock()
		if s.gen == gen && s.frame != nil {
			s.frame.totals, p.kept = t, true
		}
		s.mu.Unlock()
	}
	p.totals, p.scanned, p.buf = t, true, buf
	p.anm = map[uint32][]int32{full: anm}
	return true
}

// countAnomalous prepares a run that reuses the totals t to count its
// anomalous groups from the A anomalous leaves. Counting one cuboid's
// directly reads A·|c| elements, so the base's whole schedule of cuboids
// costs A·|base|·2^(|base|-1) reads. While that stays within the base's
// size, each cuboid counts its own (direct). A larger incident counts the
// base's anomalous groups once, A·|base| reads polling halt every
// haltStride leaves, and derives every cuboid's from them, as after a base
// pass; it returns false when halt tripped.
func (p *RollupPlan) countAnomalous(t *rollupTotals, halt Halt) bool {
	s := p.snap
	p.anomIdx = s.AnomalousLeafSet()
	p.elem = s.colFrameCached().elem
	p.direct = len(p.anomIdx)*len(p.base)<<(len(p.base)-1) <= p.size
	if !p.direct {
		buf := getAcc(p.size)
		ix := s.Indexer(p.base)
		for lo := 0; lo < len(p.anomIdx); lo += haltStride {
			if halt != nil && halt() {
				accPool.Put(buf)
				return false
			}
			countLeaves(p.elem, ix, p.anomIdx[lo:min(lo+haltStride, len(p.anomIdx))], *buf)
		}
		p.buf = buf
		p.anm = map[uint32][]int32{p.fullMask(): *buf}
	}
	p.totals = t
	return true
}

// Scanned reports whether Run read the leaves: false when it reused the
// totals the snapshot kept.
func (p *RollupPlan) Scanned() bool { return p.scanned }

func (p *RollupPlan) fullMask() uint32 { return uint32(1)<<len(p.base) - 1 }

// Groups appends cuboid c's non-empty groups into dst (reusing its
// capacity after truncation to zero length), in ascending group index —
// byte-for-byte the output ScanCuboid would produce. Valid only after Run
// returned true and when Serves(c) is true.
//
// c's totals are the marginal of the base's totals for the base positions
// c retains, computed once per snapshot by summing one attribute at a time
// out of the nearest finer marginal (contiguous strided loops, no leaf
// reads) and reused by every later cuboid and run that refines it. c's
// anomalous counts come from anomalous, below. Because the counts are
// exact integers, neither the marginalization order nor the source of a
// count changes the result.
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
	return appendGroups(dst, p.total(mask), p.anomalous(c, mask))
}

// total returns the totals marginal for mask, deriving and storing it on
// first use. On the snapshot's kept entry the derivation runs outside the
// lock; concurrent runs derive identical arrays and the first store wins.
func (p *RollupPlan) total(mask uint32) []int32 {
	if !p.kept {
		m, ok := p.totals.marg[mask]
		if !ok {
			m = p.deriveTotal(mask)
			p.totals.marg[mask] = m
		}
		return m
	}
	s := p.snap
	s.mu.Lock()
	m, ok := p.totals.marg[mask]
	gen := s.gen
	s.mu.Unlock()
	if ok {
		return m
	}
	m = p.deriveTotal(mask)
	s.mu.Lock()
	if prior, ok := p.totals.marg[mask]; ok {
		m = prior
	} else if s.gen == gen {
		p.totals.marg[mask] = m
	}
	s.mu.Unlock()
	return m
}

// deriveTotal sums one base position out of the nearest finer totals
// marginal of mask.
func (p *RollupPlan) deriveTotal(mask uint32) []int32 {
	drop := p.dropFrom(p.fullMask() &^ mask)
	return p.project(p.total(mask|1<<drop), mask, drop)
}

// anomalous returns cuboid c's anomalous counts, laid out as its totals
// marginal (mask): counted directly into pooled scratch, valid until the
// next call, or derived from the base's anomalous counts like the totals
// and memoized for the run.
func (p *RollupPlan) anomalous(c Cuboid, mask uint32) []int32 {
	if p.direct {
		ix := p.snap.Indexer(c)
		p.scratch = getAccInto(p.scratch, ix.Size())
		countLeaves(p.elem, ix, p.anomIdx, *p.scratch)
		return *p.scratch
	}
	return p.anomalousMarginal(mask)
}

// anomalousMarginal returns the anomalous marginal for mask, summing one
// base position at a time out of the base's counts and memoizing each step.
func (p *RollupPlan) anomalousMarginal(mask uint32) []int32 {
	if m, ok := p.anm[mask]; ok {
		return m
	}
	drop := p.dropFrom(p.fullMask() &^ mask)
	m := p.project(p.anomalousMarginal(mask|1<<drop), mask, drop)
	p.anm[mask] = m
	return m
}

// countLeaves adds one to cnt, the dense domain of ix's cuboid, at the
// group of each leaf in idx, reading the leaves' elements from elem.
func countLeaves(elem [][]uint32, ix *CuboidIndexer, idx []int, cnt []int32) {
	attrs, strides := ix.cuboid, ix.strides
	for _, i := range idx {
		k := 0
		for t, a := range attrs {
			k += int(elem[a][i]) * strides[t]
		}
		cnt[k]++
	}
}

// dropFrom picks the position to sum out next among those in missing: the
// one with the smallest cardinality, which keeps every parent in a
// derivation chain as small as possible.
func (p *RollupPlan) dropFrom(missing uint32) int {
	drop := -1
	for pos, card := range p.cards {
		if missing&(1<<pos) == 0 {
			continue
		}
		if drop < 0 || card < p.cards[drop] {
			drop = pos
		}
	}
	return drop
}

// project sums base position drop out of parent, the marginal for
// mask|1<<drop, into a new marginal for mask.
func (p *RollupPlan) project(parent []int32, mask uint32, drop int) []int32 {
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
	m := make([]int32, pre*post)
	if post == 1 {
		// The dropped position is the last: each child slot sums one
		// contiguous run of the parent.
		for i := range m {
			var sum int32
			for _, v := range parent[i*mid : (i+1)*mid] {
				sum += v
			}
			m[i] = sum
		}
		return m
	}
	for i := 0; i < pre; i++ {
		src := i * mid * post
		dst := m[i*post : (i+1)*post]
		for j := 0; j < mid; j++ {
			for q, v := range parent[src : src+post] {
				dst[q] += v
			}
			src += post
		}
	}
	return m
}

// Close returns the pooled arrays and drops the run's marginals; the
// snapshot keeps its totals. The plan must not be used afterwards.
func (p *RollupPlan) Close() {
	for _, b := range []*[]int32{p.buf, p.scratch} {
		if b != nil {
			accPool.Put(b)
		}
	}
	p.buf, p.scratch, p.anm, p.totals, p.kept = nil, nil, nil, nil, false
}
