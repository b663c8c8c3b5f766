package kpi

import "sort"

// Columns is the snapshot's columnar mirror: the dictionary-encoded leaf
// data laid out struct-of-arrays so scans touch contiguous memory instead
// of chasing one heap-allocated Combination per leaf. Per attribute there
// is a dense []uint32 element-ID column (the schema's interned codes), the
// actual/forecast values live in two float64 columns, and the anomaly
// labels are packed into a bitset with a cached population count.
//
// Columns are built lazily per snapshot (Snapshot.Columns) together with
// the other label-derived caches, and are dropped or patched as a unit by
// the snapshot's writers: after Relabel or Rewrite the next access yields
// fresh columns, a fresh bitset and a fresh anomalous count. The element
// and value columns (the frame) are shared across relabelings; Rewrite and
// ApplyDelta patch them in place.
type Columns struct {
	schema *Schema
	n      int
	frame  *colFrame
	// anom is the packed anomaly bitset: bit i set iff leaf i is
	// anomalous. len(anom) == (n+63)/64.
	anom []uint64
	// numAnomalous caches the bitset's population count.
	numAnomalous int
}

// colFrame holds the label-independent columns: the per-attribute element
// IDs and the v/f value columns. One frame is built per snapshot and shared
// across label invalidations.
type colFrame struct {
	elem     [][]uint32
	actual   []float64
	forecast []float64
	// count[a][code] counts the leaves carrying element code of attribute
	// a; built on first use (Snapshot.ElemCounts) and patched in place by
	// ApplyDelta.
	count [][]int32
	// totals holds the roll-up's per-group leaf counts of one base cuboid
	// and their marginals; seeded by a RollupPlan's base pass once
	// ApplyDelta has patched the snapshot, and patched in place by it.
	totals *rollupTotals
}

// elemCounts returns the frame's per-element leaf counts, building them
// with one pass over the element columns on first use; the snapshot's mutex
// must be held.
func (f *colFrame) elemCounts(schema *Schema) [][]int32 {
	if f.count != nil {
		return f.count
	}
	total := 0
	for a := range f.elem {
		total += schema.Cardinality(a)
	}
	backing := make([]int32, total)
	count := make([][]int32, len(f.elem))
	for a, col := range f.elem {
		card := schema.Cardinality(a)
		cnt := backing[:card:card]
		backing = backing[card:]
		for _, code := range col {
			cnt[code]++
		}
		count[a] = cnt
	}
	f.count = count
	return count
}

// buildColFrame encodes the leaves' combinations and values column-wise.
func buildColFrame(schema *Schema, leaves []Leaf) *colFrame {
	nAttr := schema.NumAttributes()
	n := len(leaves)
	// One backing array for all element columns keeps them adjacent in
	// memory and cuts the build to two allocations. Columns are placed in
	// descending cardinality order: the dense scans read several columns
	// per chunk, and the high-cardinality columns — the ones whose strides
	// dominate the mixed-radix keys and whose values the scan cannot
	// predict — profit most from landing adjacent at the front of the
	// block. f.elem stays indexed by attribute, so the layout is invisible
	// to every reader.
	order := make([]int, nAttr)
	for a := range order {
		order[a] = a
	}
	sort.SliceStable(order, func(i, j int) bool {
		return schema.Cardinality(order[i]) > schema.Cardinality(order[j])
	})
	backing := make([]uint32, nAttr*n)
	f := &colFrame{
		elem:     make([][]uint32, nAttr),
		actual:   make([]float64, n),
		forecast: make([]float64, n),
	}
	for pos, a := range order {
		f.elem[a] = backing[pos*n : (pos+1)*n : (pos+1)*n]
	}
	for i := range leaves {
		l := &leaves[i]
		for a, code := range l.Combo {
			f.elem[a][i] = uint32(code)
		}
		f.actual[i] = l.Actual
		f.forecast[i] = l.Forecast
	}
	return f
}

// newColumns assembles a Columns view from a frame plus the anomalous leaf
// indexes (the labelDerived cache's anomIdx).
func newColumns(schema *Schema, frame *colFrame, n int, anomIdx []int) *Columns {
	c := &Columns{
		schema:       schema,
		n:            n,
		frame:        frame,
		anom:         make([]uint64, (n+63)/64),
		numAnomalous: len(anomIdx),
	}
	for _, i := range anomIdx {
		c.anom[i>>6] |= 1 << (uint(i) & 63)
	}
	return c
}

// Len returns the number of encoded leaves.
func (c *Columns) Len() int { return c.n }

// Actual returns the actual-value column; treat it as read-only.
func (c *Columns) Actual() []float64 { return c.frame.actual }

// Forecast returns the forecast-value column; treat it as read-only.
func (c *Columns) Forecast() []float64 { return c.frame.forecast }

// AnomalousBits returns the packed anomaly bitset (bit i == leaf i); treat
// it as read-only.
func (c *Columns) AnomalousBits() []uint64 { return c.anom }

// Anomalous reports whether leaf i is labeled anomalous.
func (c *Columns) Anomalous(i int) bool {
	return c.anom[i>>6]>>(uint(i)&63)&1 != 0
}

// NumAnomalous returns the cached anomalous leaf count (the bitset's
// population count).
func (c *Columns) NumAnomalous() int { return c.numAnomalous }

// setAnomalous patches leaf i's bit and the cached population count; used
// by the snapshot's delta/label patching under its mutex. Callers pass the
// leaf's new label only when it differs from the stored bit, but the update
// is idempotent either way.
func (c *Columns) setAnomalous(i int, anomalous bool) {
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	set := c.anom[w]&m != 0
	switch {
	case anomalous && !set:
		c.anom[w] |= m
		c.numAnomalous++
	case !anomalous && set:
		c.anom[w] &^= m
		c.numAnomalous--
	}
}

// grow extends the store to n leaves (bits above the old count arrive
// cleared); the element and value columns live on the shared frame, which
// the snapshot patches separately.
func (c *Columns) grow(n int) {
	need := (n + 63) / 64
	for len(c.anom) < need {
		c.anom = append(c.anom, 0)
	}
	c.n = n
}

// shrink truncates the store to n leaves. The caller has already cleared
// the bits of the dropped tail, so the resliced bitset equals a fresh
// encoding's.
func (c *Columns) shrink(n int) {
	c.anom = c.anom[:(n+63)/64]
	c.n = n
}

// Leaf decodes leaf i back from the columns — the inverse of the encoding,
// allocating a fresh Combination. Used to verify the round trip; scans read
// the columns directly instead.
func (c *Columns) Leaf(i int) Leaf {
	combo := make(Combination, len(c.frame.elem))
	for a := range c.frame.elem {
		combo[a] = int32(c.frame.elem[a][i])
	}
	return Leaf{
		Combo:     combo,
		Actual:    c.frame.actual[i],
		Forecast:  c.frame.forecast[i],
		Anomalous: c.Anomalous(i),
	}
}
