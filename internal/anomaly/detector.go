// Package anomaly labels the most fine-grained attribute combinations of a
// KPI snapshot as normal or anomalous. The labels are the only input the
// RAPMiner search consumes (Section IV-B of the paper: "RAPMiner only uses
// the anomaly detection results for the most fine-grained attribute
// combinations"), so the detectors here form the boundary between the
// forecasting substrate and the localization algorithms.
package anomaly

import (
	"fmt"
	"math"

	"repro/internal/kpi"
)

// Detector decides whether a single leaf observation is anomalous.
type Detector interface {
	// Detect reports whether the (actual, forecast) pair is anomalous.
	Detect(actual, forecast float64) bool
	// Name identifies the detector in reports.
	Name() string
}

// Label applies a detector to every leaf of the snapshot in place and
// returns the number of leaves labeled anomalous. The snapshot's
// label-derived caches are dropped (kpi.Snapshot.Relabel), so a relabeled
// snapshot is always searched against the fresh labels.
func Label(s *kpi.Snapshot, d Detector) int {
	return s.Relabel(d.Detect)
}

// RelativeDeviation flags a leaf when |f - v| / max(f, eps) exceeds
// Threshold. This is the detector matched to the paper's injection scheme,
// which perturbs leaves by a relative deviation Dev = (f - v) / f (Eq. 4):
// injected leaves get Dev in [0.1, 0.9] and background leaves Dev in
// [-0.02, 0.09], so any threshold strictly between 0.09 and 0.1 separates
// them exactly.
type RelativeDeviation struct {
	// Threshold is the minimum |relative deviation| considered
	// anomalous.
	Threshold float64
	// MinForecast ignores leaves whose forecast is below this floor;
	// tiny denominators make relative deviation meaningless on sparse
	// CDN leaves.
	MinForecast float64
	// Eps guards division by zero.
	Eps float64
}

var _ Detector = RelativeDeviation{}

// DefaultRelativeDeviation returns the detector used throughout the
// experiments: threshold strictly between the paper's normal and anomalous
// deviation ranges.
func DefaultRelativeDeviation() RelativeDeviation {
	return RelativeDeviation{Threshold: 0.095, Eps: 1e-9}
}

// Name implements Detector.
func (d RelativeDeviation) Name() string {
	return fmt.Sprintf("reldev(%.3f)", d.Threshold)
}

// Detect implements Detector.
func (d RelativeDeviation) Detect(actual, forecast float64) bool {
	if forecast < d.MinForecast {
		return false
	}
	dev := math.Abs(forecast-actual) / (math.Abs(forecast) + d.Eps)
	return dev >= d.Threshold
}
