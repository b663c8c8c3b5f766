package kpi

import (
	"fmt"
	"sort"
)

// Delta ingestion: per-minute ticks rarely replace the world. A CDN tick
// re-observes a fraction of the leaves and occasionally churns a few in or
// out; rebuilding the columnar frame, the anomaly bitset and the inverted
// postings from scratch for every tick is what caps a single instance well
// below the millions-of-leaves target. ApplyDelta patches the long-lived
// snapshot — and every cache hanging off it — in place, so the cost of a
// tick is proportional to the leaves it touches, not to the snapshot size.
//
// The contract is exactness, not approximation: after ApplyDelta the
// snapshot must be indistinguishable from NewSnapshot(schema, Leaves) built
// from scratch over the post-delta leaf slice. Every scan (ScanCuboid,
// RollupPlan), every cached structure (Columns, AnomalousLeafSet,
// AnomalousPostings) and everything derived from them — results and
// Diagnostics both — is bit-identical to the rebuilt snapshot's, at any
// worker count. The delta fuzz and the engine-level pins enforce this.
//
// Deltas stay within one schema. A tick that changes the schema or an
// attribute's cardinality cannot be patched — the mixed-radix strides of
// every indexer shift — so the caller falls back to a fresh snapshot.

// LeafUpdate re-observes one existing leaf: the combination identifies it,
// Actual/Forecast replace its values. The anomaly label is deliberately not
// part of an update — labeling is the detector's job, done incrementally
// over the touched set with RelabelTouched (anomaly.LabelDelta) after the
// delta applies.
type LeafUpdate struct {
	Combo    Combination
	Actual   float64
	Forecast float64
}

// Delta is one tick's worth of changes to a snapshot. Application order is
// fixed: Removes, then Updates, then Adds — so update and add indexes
// reported in ApplyResult.Touched are stable post-apply positions, and a
// key removed by the same delta may be re-added with a fresh observation.
type Delta struct {
	// Removes drops existing leaves by combination.
	Removes []Combination
	// Updates replaces the values of existing leaves.
	Updates []LeafUpdate
	// Adds appends new leaves (fully constrained, schema-valid, not
	// already present). Their Anomalous labels are honored, like
	// NewSnapshot's.
	Adds []Leaf
}

// Size returns the number of change records in the delta.
func (d Delta) Size() int { return len(d.Removes) + len(d.Updates) + len(d.Adds) }

// ApplyResult reports what one ApplyDelta changed.
type ApplyResult struct {
	Removed, Updated, Added int
	// Touched holds the post-apply leaf indexes of the updated and added
	// leaves — the set an incremental detector must re-label
	// (anomaly.LabelDelta consumes it). Removed leaves need no relabel and
	// are not listed.
	Touched []int
	// PatchedFrame reports that the columnar frame existed and was patched
	// in place (false when it had not been built yet, so there was nothing
	// to patch).
	PatchedFrame bool
	// PatchedLabels reports that the label-derived caches existed and were
	// patched in place.
	PatchedLabels bool
}

// ApplyDelta applies the delta to the snapshot in place, patching the
// columnar frame (element counts and roll-up totals included), the anomaly
// bitset (with its cached count), the anomalous leaf set, the inverted
// postings and the leaf-position index rather than dropping them. The
// delta is validated in full before anything mutates, so a returned error
// leaves the snapshot untouched. Like every snapshot mutation, ApplyDelta
// must not race with concurrent readers: the caller serializes ticks
// against searches.
//
// Removed leaves are swap-removed (the last leaf moves into the hole), so
// leaf order after a remove differs from insertion order — the equivalence
// contract is against a from-scratch snapshot over the post-delta Leaves
// slice, which is the only order that ever matters to the scans.
func (s *Snapshot) ApplyDelta(d Delta) (ApplyResult, error) {
	var res ApplyResult
	s.mu.Lock()
	defer s.mu.Unlock()
	pos := s.leafPosLocked()
	keyer := pos.keyer

	// Validate everything against the pre-delta state plus the delta's own
	// pending removes/adds, so application below cannot fail halfway. Each
	// record's key is computed once, for its position lookup and its
	// duplicate checks.
	removed := keyer.newSet(len(d.Removes))
	var rmKeys []leafKey
	if len(d.Removes) > 0 {
		rmKeys = make([]leafKey, len(d.Removes))
	}
	for i, c := range d.Removes {
		if err := s.checkDeltaCombo(c, "remove", i); err != nil {
			return res, err
		}
		k := keyer.key(c)
		if _, ok := pos.get(k); !ok {
			return res, fmt.Errorf("kpi: delta remove %d: leaf %s not in snapshot", i, c.Format(s.Schema))
		}
		if removed.add(k) {
			return res, fmt.Errorf("kpi: delta remove %d: duplicate leaf %s", i, c.Format(s.Schema))
		}
		rmKeys[i] = k
	}
	// touched collects the updated leaves' indexes as validation resolves
	// them, then the added leaves' as they land.
	var touched []int
	if n := len(d.Updates) + len(d.Adds); n > 0 {
		touched = make([]int, 0, n)
	}
	updated := keyer.newSet(len(d.Updates))
	for i, u := range d.Updates {
		if err := s.checkDeltaCombo(u.Combo, "update", i); err != nil {
			return res, err
		}
		k := keyer.key(u.Combo)
		at, ok := pos.get(k)
		if !ok {
			return res, fmt.Errorf("kpi: delta update %d: leaf %s not in snapshot", i, u.Combo.Format(s.Schema))
		}
		touched = append(touched, int(at))
		if len(d.Removes) > 0 && removed.has(k) {
			return res, fmt.Errorf("kpi: delta update %d: leaf %s is removed by the same delta", i, u.Combo.Format(s.Schema))
		}
		if updated.add(k) {
			return res, fmt.Errorf("kpi: delta update %d: duplicate leaf %s", i, u.Combo.Format(s.Schema))
		}
	}
	added := keyer.newSet(len(d.Adds))
	var addKeys []leafKey
	if len(d.Adds) > 0 {
		addKeys = make([]leafKey, len(d.Adds))
	}
	for i, l := range d.Adds {
		if err := s.checkDeltaCombo(l.Combo, "add", i); err != nil {
			return res, err
		}
		k := keyer.key(l.Combo)
		if _, present := pos.get(k); present && !removed.has(k) {
			return res, fmt.Errorf("kpi: delta add %d: leaf %s already in snapshot", i, l.Combo.Format(s.Schema))
		}
		if added.add(k) {
			return res, fmt.Errorf("kpi: delta add %d: duplicate leaf %s", i, l.Combo.Format(s.Schema))
		}
		addKeys[i] = k
	}

	res.PatchedFrame = s.frame != nil
	res.PatchedLabels = s.labeled != nil

	for _, k := range rmKeys {
		i, _ := pos.get(k)
		s.removeLeafLocked(i, k)
		res.Removed++
	}
	if len(d.Removes) > 0 {
		// Swap-removes move leaves: re-resolve the updated ones.
		for j, u := range d.Updates {
			at, _ := pos.get(keyer.key(u.Combo))
			touched[j] = int(at)
		}
	}
	for j, u := range d.Updates {
		i := touched[j]
		l := &s.Leaves[i]
		l.Actual, l.Forecast = u.Actual, u.Forecast
		if s.frame != nil {
			s.frame.actual[i] = u.Actual
			s.frame.forecast[i] = u.Forecast
		}
		res.Updated++
	}
	for j, l := range d.Adds {
		touched = append(touched, s.addLeafLocked(l, addKeys[j]))
		res.Added++
	}
	res.Touched = touched
	s.gen++
	return res, nil
}

// checkDeltaCombo validates a delta combination against the schema: a fully
// constrained leaf with valid codes.
func (s *Snapshot) checkDeltaCombo(c Combination, op string, i int) error {
	if len(c) != s.Schema.NumAttributes() {
		return fmt.Errorf("kpi: delta %s %d: combination has %d attributes, schema has %d",
			op, i, len(c), s.Schema.NumAttributes())
	}
	for a, code := range c {
		if code == Wildcard {
			return fmt.Errorf("kpi: delta %s %d: combination is not fully constrained (attribute %s)",
				op, i, s.Schema.Attribute(a).Name)
		}
		if !s.Schema.ValidCode(a, code) {
			return fmt.Errorf("kpi: delta %s %d: invalid code %d for attribute %s",
				op, i, code, s.Schema.Attribute(a).Name)
		}
	}
	return nil
}

// leafPosLocked returns the leaf → index table, building it on first use;
// s.mu must be held.
func (s *Snapshot) leafPosLocked() *leafPositions {
	if s.leafPos == nil {
		keyer := newLeafKeyer(s.Schema)
		pos := keyer.newPositions(len(s.Leaves))
		for i := range s.Leaves {
			pos.set(keyer.key(s.Leaves[i].Combo), int32(i))
		}
		s.leafPos = pos
	}
	return s.leafPos
}

// removeLeafLocked swap-removes leaf i, keyed k, patching every built
// cache; s.mu must be held.
func (s *Snapshot) removeLeafLocked(i32 int32, k leafKey) {
	i := int(i32)
	last := len(s.Leaves) - 1
	removed := s.Leaves[i]
	moved := s.Leaves[last]

	if ld := s.labeled; ld != nil {
		if removed.Anomalous {
			ld.dropLeaf(i, removed.Combo)
		}
		if i != last && moved.Anomalous {
			// The moving leaf's index shrinks from last to i. last is the
			// maximal live index, so it sits at the tail of every sorted
			// list it appears in.
			ld.dropLeaf(last, moved.Combo)
			ld.insertLeaf(i, moved.Combo)
		}
		if ld.cols != nil {
			ld.cols.shrink(len(s.Leaves) - 1)
		}
	}

	s.Leaves[i] = moved
	s.Leaves = s.Leaves[:last]
	if f := s.frame; f != nil {
		if f.count != nil {
			for a, code := range removed.Combo {
				f.count[a][code]--
			}
		}
		if f.totals != nil {
			f.totals.patch(removed.Combo, -1)
		}
		for a := range f.elem {
			f.elem[a][i] = f.elem[a][last]
			f.elem[a] = f.elem[a][:last]
		}
		f.actual[i] = f.actual[last]
		f.actual = f.actual[:last]
		f.forecast[i] = f.forecast[last]
		f.forecast = f.forecast[:last]
	}
	s.leafPos.delete(k)
	if i != last {
		s.leafPos.set(s.leafPos.keyer.key(moved.Combo), i32)
	}
}

// addLeafLocked appends the leaf, keyed k, patching every built cache, and
// returns its index; s.mu must be held. The combination is cloned so the
// snapshot never aliases a caller's decode buffer.
func (s *Snapshot) addLeafLocked(l Leaf, k leafKey) int {
	n := len(s.Leaves)
	l.Combo = l.Combo.Clone()
	s.Leaves = append(s.Leaves, l)
	if f := s.frame; f != nil {
		// The element columns were carved out of one shared backing array
		// with their capacity pinned at the boundary, so the first append
		// per column copies it out; later appends amortize as usual.
		for a, code := range l.Combo {
			f.elem[a] = append(f.elem[a], uint32(code))
		}
		if f.count != nil {
			for a, code := range l.Combo {
				f.count[a][code]++
			}
		}
		if f.totals != nil {
			f.totals.patch(l.Combo, 1)
		}
		f.actual = append(f.actual, l.Actual)
		f.forecast = append(f.forecast, l.Forecast)
	}
	if ld := s.labeled; ld != nil {
		if ld.cols != nil {
			ld.cols.grow(n + 1)
		}
		if l.Anomalous {
			ld.insertLeaf(n, l.Combo)
		}
	}
	s.leafPos.set(k, int32(n))
	return n
}

// insertLeaf records leaf i (with the given combination) as anomalous in
// every built label cache.
func (ld *labelDerived) insertLeaf(i int, combo Combination) {
	ld.anomIdx = insertSortedInt(ld.anomIdx, i)
	if ld.postings != nil {
		for a, code := range combo {
			ld.postings[a][code] = insertSortedInt32(ld.postings[a][code], int32(i))
		}
	}
	if ld.cols != nil {
		ld.cols.setAnomalous(i, true)
	}
}

// dropLeaf removes leaf i (with the given combination) from every built
// label cache.
func (ld *labelDerived) dropLeaf(i int, combo Combination) {
	ld.anomIdx = removeSortedInt(ld.anomIdx, i)
	if ld.postings != nil {
		for a, code := range combo {
			ld.postings[a][code] = removeSortedInt32(ld.postings[a][code], int32(i))
		}
	}
	if ld.cols != nil {
		ld.cols.setAnomalous(i, false)
	}
}

// insertSortedInt inserts v into the ascending slice, keeping it sorted;
// inserting a present value is a no-op.
func insertSortedInt(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// removeSortedInt removes v from the ascending slice; removing an absent
// value is a no-op.
func removeSortedInt(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i >= len(s) || s[i] != v {
		return s
	}
	return append(s[:i], s[i+1:]...)
}

func insertSortedInt32(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(j int) bool { return s[j] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSortedInt32(s []int32, v int32) []int32 {
	i := sort.Search(len(s), func(j int) bool { return s[j] >= v })
	if i >= len(s) || s[i] != v {
		return s
	}
	return append(s[:i], s[i+1:]...)
}
