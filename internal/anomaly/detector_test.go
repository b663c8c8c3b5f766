package anomaly

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/kpi"
)

func twoAttrSchema(t *testing.T) *kpi.Schema {
	t.Helper()
	return kpi.MustSchema(
		kpi.Attribute{Name: "A", Values: []string{"a1", "a2"}},
		kpi.Attribute{Name: "B", Values: []string{"b1", "b2"}},
	)
}

func TestRelativeDeviationSeparatesInjectionRanges(t *testing.T) {
	d := DefaultRelativeDeviation()
	// Paper Randomness 2: anomalous Dev in [0.1, 0.9], normal Dev in
	// [-0.02, 0.09]. v = f * (1 - Dev).
	f := 100.0
	for _, dev := range []float64{0.1, 0.3, 0.5, 0.9} {
		if !d.Detect(f*(1-dev), f) {
			t.Errorf("Dev %v not detected", dev)
		}
	}
	for _, dev := range []float64{-0.02, 0, 0.05, 0.09} {
		if d.Detect(f*(1-dev), f) {
			t.Errorf("Dev %v falsely detected", dev)
		}
	}
}

func TestRelativeDeviationMinForecast(t *testing.T) {
	d := RelativeDeviation{Threshold: 0.1, MinForecast: 10, Eps: 1e-9}
	if d.Detect(0, 5) {
		t.Error("leaf below MinForecast flagged")
	}
	if !d.Detect(0, 20) {
		t.Error("large deviation above MinForecast not flagged")
	}
}

func TestRelativeDeviationZeroForecast(t *testing.T) {
	d := RelativeDeviation{Threshold: 0.1, Eps: 1e-9}
	got := d.Detect(5, 0)
	if !got {
		t.Error("actual 5 on zero forecast should be anomalous")
	}
	if d.Detect(0, 0) {
		t.Error("0/0 flagged anomalous")
	}
}

func TestAbsoluteDeviation(t *testing.T) {
	d := AbsoluteDeviation{Threshold: 10}
	if !d.Detect(0, 10) {
		t.Error("deviation == threshold not flagged")
	}
	if d.Detect(95, 100) {
		t.Error("small deviation flagged")
	}
	if d.Name() == "" {
		t.Error("empty name")
	}
}

func TestKSigmaCalibrateAndDetect(t *testing.T) {
	d := &KSigma{K: 3}
	actual := []float64{10, 11, 9, 10, 10, 12, 8, 10}
	forecast := []float64{10, 10, 10, 10, 10, 10, 10, 10}
	if err := d.Calibrate(actual, forecast); err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if math.Abs(d.Mean) > 0.5 {
		t.Errorf("Mean = %v, want near 0", d.Mean)
	}
	if !d.Detect(100, 10) {
		t.Error("huge residual not detected")
	}
	if d.Detect(10.5, 10) {
		t.Error("in-noise residual detected")
	}
}

func TestKSigmaCalibrateErrors(t *testing.T) {
	d := &KSigma{K: 3}
	if err := d.Calibrate([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := d.Calibrate(nil, nil); err == nil {
		t.Error("empty calibration accepted")
	}
}

func TestKSigmaZeroStdFallback(t *testing.T) {
	d := &KSigma{K: 3}
	if err := d.Calibrate([]float64{5, 5}, []float64{5, 5}); err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if !d.Detect(6, 5) {
		t.Error("deviation on zero-noise channel not detected")
	}
	if d.Detect(5, 5) {
		t.Error("exact match detected on zero-noise channel")
	}
}

func TestLabelCountsAndMutates(t *testing.T) {
	s := twoAttrSchema(t)
	snap, err := kpi.NewSnapshot(s, []kpi.Leaf{
		{Combo: kpi.Combination{0, 0}, Actual: 50, Forecast: 100},
		{Combo: kpi.Combination{0, 1}, Actual: 99, Forecast: 100},
		{Combo: kpi.Combination{1, 0}, Actual: 0, Forecast: 100},
		{Combo: kpi.Combination{1, 1}, Actual: 100, Forecast: 100},
	})
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	n := Label(snap, DefaultRelativeDeviation())
	if n != 2 {
		t.Errorf("Label = %d, want 2", n)
	}
	if !snap.Leaves[0].Anomalous || !snap.Leaves[2].Anomalous {
		t.Error("expected leaves 0 and 2 anomalous")
	}
	if snap.Leaves[1].Anomalous || snap.Leaves[3].Anomalous {
		t.Error("expected leaves 1 and 3 normal")
	}
	// Re-labeling with a permissive detector clears previous labels.
	n = Label(snap, AbsoluteDeviation{Threshold: math.Inf(1)})
	if n != 0 || snap.Leaves[0].Anomalous {
		t.Error("Label did not overwrite previous labels")
	}
}

func TestRelativeDeviationSymmetricQuick(t *testing.T) {
	// Detection depends on |f - v|, so spikes and dips with the same
	// magnitude are treated the same.
	d := DefaultRelativeDeviation()
	f := func(forecast uint16, deltaRaw uint16) bool {
		fv := float64(forecast) + 1
		delta := float64(deltaRaw%1000) / 1000 * fv
		return d.Detect(fv-delta, fv) == d.Detect(fv+delta, fv)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLabelTopQuantile(t *testing.T) {
	s := kpi.MustSchema(
		kpi.Attribute{Name: "A", Values: []string{"a1", "a2", "a3", "a4", "a5"}},
		kpi.Attribute{Name: "B", Values: []string{"b1", "b2"}},
	)
	var leaves []kpi.Leaf
	for a := int32(0); a < 5; a++ {
		for b := int32(0); b < 2; b++ {
			// Deviation grows with the leaf index.
			dev := float64(a*2+b) / 20
			leaves = append(leaves, kpi.Leaf{
				Combo:    kpi.Combination{a, b},
				Actual:   100 * (1 - dev),
				Forecast: 100,
			})
		}
	}
	snap, err := kpi.NewSnapshot(s, leaves)
	if err != nil {
		t.Fatal(err)
	}
	n, err := LabelTopQuantile(snap, TopQuantile{Q: 0.2, Eps: 1e-9})
	if err != nil {
		t.Fatalf("LabelTopQuantile: %v", err)
	}
	if n != 2 {
		t.Fatalf("labeled %d leaves, want 2", n)
	}
	// The two largest-deviation leaves are the last two.
	for i, l := range snap.Leaves {
		want := i >= 8
		if l.Anomalous != want {
			t.Errorf("leaf %d anomalous = %v, want %v", i, l.Anomalous, want)
		}
	}
}

func TestLabelTopQuantileValidationAndEdges(t *testing.T) {
	s := kpi.MustSchema(kpi.Attribute{Name: "A", Values: []string{"x"}})
	snap, _ := kpi.NewSnapshot(s, []kpi.Leaf{{Combo: kpi.Combination{0}, Actual: 1, Forecast: 1}})
	if _, err := LabelTopQuantile(snap, TopQuantile{Q: 0}); err == nil {
		t.Error("Q = 0 accepted")
	}
	if _, err := LabelTopQuantile(snap, TopQuantile{Q: 1}); err == nil {
		t.Error("Q = 1 accepted")
	}
	// All-clean snapshot labels nothing even at a high quantile.
	n, err := LabelTopQuantile(snap, TopQuantile{Q: 0.5, Eps: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("clean snapshot labeled %d leaves", n)
	}
	empty, _ := kpi.NewSnapshot(s, nil)
	if n, err := LabelTopQuantile(empty, TopQuantile{Q: 0.5}); err != nil || n != 0 {
		t.Errorf("empty snapshot: n=%d err=%v", n, err)
	}
}

// AbsoluteDeviation flags a leaf when |f - v| exceeds Threshold; useful for
// KPIs whose noise floor is additive rather than multiplicative.
type AbsoluteDeviation struct {
	Threshold float64
}

var _ Detector = AbsoluteDeviation{}

// Name implements Detector.
func (d AbsoluteDeviation) Name() string {
	return fmt.Sprintf("absdev(%g)", d.Threshold)
}

// Detect implements Detector.
func (d AbsoluteDeviation) Detect(actual, forecast float64) bool {
	return math.Abs(forecast-actual) >= d.Threshold
}

// KSigma flags a leaf when the residual deviates from the residual mean by
// more than K standard deviations. Mean and Std are calibrated from a
// normal-period window with Calibrate.
type KSigma struct {
	K    float64
	Mean float64
	Std  float64
}

var _ Detector = (*KSigma)(nil)

// Name implements Detector.
func (d *KSigma) Name() string { return fmt.Sprintf("ksigma(%.1f)", d.K) }

// Calibrate estimates the residual distribution from paired normal-period
// observations.
func (d *KSigma) Calibrate(actual, forecast []float64) error {
	if len(actual) != len(forecast) {
		return fmt.Errorf("anomaly: calibrate length mismatch %d vs %d", len(actual), len(forecast))
	}
	if len(actual) == 0 {
		return fmt.Errorf("anomaly: calibrate with no samples")
	}
	var sum float64
	for i := range actual {
		sum += actual[i] - forecast[i]
	}
	d.Mean = sum / float64(len(actual))
	var ss float64
	for i := range actual {
		r := actual[i] - forecast[i] - d.Mean
		ss += r * r
	}
	d.Std = math.Sqrt(ss / float64(len(actual)))
	return nil
}

// Detect implements Detector.
func (d *KSigma) Detect(actual, forecast float64) bool {
	if d.Std == 0 {
		return actual != forecast
	}
	return math.Abs(actual-forecast-d.Mean) > d.K*d.Std
}

// TopQuantile labels the fraction Q of leaves with the largest relative
// deviations, regardless of absolute scale — useful when a fixed threshold
// cannot be calibrated. Unlike the threshold detectors it needs the whole
// snapshot at once, so it is applied via LabelTopQuantile rather than
// Label.
type TopQuantile struct {
	// Q is the fraction of leaves to label, in (0, 1).
	Q float64
	// Eps guards division.
	Eps float64
}

// LabelTopQuantile labels the snapshot in place and returns the number of
// anomalous leaves. Like Label, it relabels through kpi.Snapshot.Relabel.
func LabelTopQuantile(s *kpi.Snapshot, d TopQuantile) (int, error) {
	if d.Q <= 0 || d.Q >= 1 {
		return 0, fmt.Errorf("anomaly: quantile %v out of (0, 1)", d.Q)
	}
	n := s.Len()
	if n == 0 {
		return 0, nil
	}
	dev := func(actual, forecast float64) float64 {
		return math.Abs(forecast-actual) / (math.Abs(forecast) + d.Eps)
	}
	sorted := make([]float64, n)
	for i, l := range s.Leaves {
		sorted[i] = dev(l.Actual, l.Forecast)
	}
	sort.Float64s(sorted)
	cutIdx := int(float64(n) * (1 - d.Q))
	if cutIdx >= n {
		cutIdx = n - 1
	}
	cut := sorted[cutIdx]
	if cut == 0 {
		// A zero threshold would label every exact leaf; an all-clean
		// snapshot labels nothing.
		return s.Relabel(func(actual, forecast float64) bool { return dev(actual, forecast) > 0 }), nil
	}
	return s.Relabel(func(actual, forecast float64) bool { return dev(actual, forecast) >= cut }), nil
}
