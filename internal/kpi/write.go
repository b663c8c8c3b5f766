package kpi

// The writers: the only code that changes a snapshot's leaves after
// NewSnapshot, together with ApplyDelta. Each knows which caches its write
// leaves valid and drops or patches the rest, so a caller never needs to
// know which caches exist. Like ApplyDelta, a writer must not race with
// readers: the caller serializes writes against searches.

// Relabel sets every leaf's label to detect(actual, forecast) and returns
// the number of anomalous leaves. It drops the label-derived caches (the
// anomalous leaf set, the postings and the columnar bitset); the columnar
// frame, the element counts, the roll-up totals and the leaf positions
// survive, so a relabel cycle does not re-encode the world.
func (s *Snapshot) Relabel(detect func(actual, forecast float64) bool) int {
	n := 0
	for i := range s.Leaves {
		l := &s.Leaves[i]
		l.Anomalous = detect(l.Actual, l.Forecast)
		if l.Anomalous {
			n++
		}
	}
	s.invalidateLabels()
	return n
}

// RelabelTouched sets the label of each leaf in touched (indexes into
// Leaves, such as ApplyResult.Touched) to detect(actual, forecast), calling
// detect once per index in touched's order, and returns the indexes whose
// label flipped. The label-derived caches are patched in place rather than
// dropped; a call that flips nothing leaves the snapshot exactly as it was.
func (s *Snapshot) RelabelTouched(detect func(actual, forecast float64) bool, touched []int) []int {
	var flipped []int
	for _, i := range touched {
		l := &s.Leaves[i]
		if want := detect(l.Actual, l.Forecast); want != l.Anomalous {
			l.Anomalous = want
			flipped = append(flipped, i)
		}
	}
	if len(flipped) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	if ld := s.labeled; ld != nil {
		for _, i := range flipped {
			if l := &s.Leaves[i]; l.Anomalous {
				ld.insertLeaf(i, l.Combo)
			} else {
				ld.dropLeaf(i, l.Combo)
			}
		}
	}
	return flipped
}

// Rewrite calls fn once per leaf, in ascending index order on the caller's
// goroutine, and sets the leaf's actual, forecast and label to what fn
// returns; a leaf's combination cannot change. The columnar frame's value
// columns are rewritten in place and the leaf positions, element counts
// and roll-up totals survive; the label-derived caches are dropped.
func (s *Snapshot) Rewrite(fn func(l Leaf) (actual, forecast float64, anomalous bool)) {
	for i := range s.Leaves {
		l := &s.Leaves[i]
		l.Actual, l.Forecast, l.Anomalous = fn(*l)
	}
	s.mu.Lock()
	if f := s.frame; f != nil {
		for i := range s.Leaves {
			f.actual[i] = s.Leaves[i].Actual
			f.forecast[i] = s.Leaves[i].Forecast
		}
	}
	s.mu.Unlock()
	s.invalidateLabels()
}

// invalidateLabels drops every cache derived from the Anomalous labels —
// the anomalous leaf set, the inverted postings, and the columnar store's
// anomaly bitset together with its cached count — and bumps the
// generation, so a lazy build racing the write is discarded.
func (s *Snapshot) invalidateLabels() {
	s.mu.Lock()
	s.gen++
	s.labeled = nil
	s.mu.Unlock()
}
