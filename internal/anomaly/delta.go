package anomaly

import "repro/internal/kpi"

// LabelDelta re-runs the detector over exactly the touched leaves — the set
// a kpi.Delta updated or added (ApplyResult.Touched) — and patches the
// snapshot's label-derived caches in place instead of dropping them
// (kpi.Snapshot.RelabelTouched). It returns the indexes whose label actually
// flipped, so the caller can tell a tick that changed the anomaly picture
// from one that only wiggled values.
//
// The contract mirrors Label's: afterwards the snapshot's labels are exactly
// what Label(s, d) would have produced, provided the untouched leaves were
// already labeled by the same detector. That holds for every per-leaf
// detector; it cannot hold for a labeler whose cut depends on leaves a delta
// never touched (a top-quantile labeler, say) — such a labeler must relabel
// in full.
func LabelDelta(s *kpi.Snapshot, d Detector, touched []int) []int {
	return s.RelabelTouched(d.Detect, touched)
}
