package timeseries

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDecomposeValidation(t *testing.T) {
	if _, err := Decompose(make([]float64, 10), 1); err == nil {
		t.Error("period 1 accepted")
	}
	if _, err := Decompose(make([]float64, 5), 4); !errors.Is(err, ErrShortHistory) {
		t.Errorf("short series error = %v", err)
	}
}

func TestDecomposeRecoversKnownComponents(t *testing.T) {
	const period = 12
	n := 8 * period
	values := make([]float64, n)
	trueSeason := func(i int) float64 { return 10 * math.Sin(2*math.Pi*float64(i%period)/period) }
	for i := range values {
		trend := 100 + 0.5*float64(i)
		values[i] = trend + trueSeason(i)
	}
	d, err := Decompose(values, period)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	// Seasonal component approximates the sine (interior phases).
	for p := 0; p < period; p++ {
		if math.Abs(d.Seasonal[p]-trueSeason(p)) > 1.0 {
			t.Errorf("seasonal[%d] = %v, want about %v", p, d.Seasonal[p], trueSeason(p))
		}
	}
	// Interior residuals are near zero for a noiseless series.
	for i := period; i < n-period; i++ {
		if math.Abs(d.Residual[i]) > 1.0 {
			t.Errorf("residual[%d] = %v, want near 0", i, d.Residual[i])
		}
	}
	// Trend is increasing on the interior.
	if d.Trend[n/2] <= d.Trend[period] {
		t.Error("trend not increasing")
	}
}

func TestDecomposeOddPeriod(t *testing.T) {
	const period = 7
	values := make([]float64, 6*period)
	for i := range values {
		values[i] = 50 + 5*math.Cos(2*math.Pi*float64(i%period)/period)
	}
	d, err := Decompose(values, period)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	recon := d.Reconstruct()
	for i := range values {
		if math.Abs(recon[i]-values[i]) > 1e-9 {
			t.Fatalf("reconstruction differs at %d: %v vs %v", i, recon[i], values[i])
		}
	}
}

func TestDecomposeSeasonalZeroMean(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	values := make([]float64, 100)
	for i := range values {
		values[i] = 10*math.Sin(2*math.Pi*float64(i%10)/10) + r.NormFloat64()
	}
	d, err := Decompose(values, 10)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	var sum float64
	for p := 0; p < d.Period; p++ {
		sum += d.Seasonal[p]
	}
	if math.Abs(sum) > 1e-9 {
		t.Errorf("seasonal component mean = %v, want 0", sum/float64(d.Period))
	}
}

func TestDecomposeReconstructExactQuick(t *testing.T) {
	// Reconstruction is exact for any input: the residual absorbs
	// whatever trend+seasonal miss.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		values := make([]float64, 48)
		for i := range values {
			values[i] = 100 * r.Float64()
		}
		d, err := Decompose(values, 6)
		if err != nil {
			return false
		}
		recon := d.Reconstruct()
		for i := range values {
			if math.Abs(recon[i]-values[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDeseasonalize(t *testing.T) {
	const period = 4
	values := make([]float64, 5*period)
	for i := range values {
		values[i] = 20 + []float64{5, -5, 3, -3}[i%period]
	}
	d, err := Decompose(values, period)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	flat, err := d.Deseasonalize(values)
	if err != nil {
		t.Fatalf("Deseasonalize: %v", err)
	}
	st := Summarize(flat[period : len(flat)-period])
	if st.Std > 0.5 {
		t.Errorf("deseasonalized interior std = %v, want near 0", st.Std)
	}
	if _, err := d.Deseasonalize(values[:3]); err == nil {
		t.Error("length mismatch accepted")
	}
}

// Decomposition splits a series into trend, seasonal and residual
// components (classical additive decomposition): value = trend + seasonal +
// residual.
type Decomposition struct {
	Period   int
	Trend    []float64
	Seasonal []float64
	Residual []float64
}

// Decompose performs classical additive decomposition with the given
// season length: a centered moving average of one period estimates the
// trend, per-phase means of the detrended series estimate the seasonal
// component (normalized to zero mean), and the rest is residual. The series
// needs at least two full periods.
func Decompose(values []float64, period int) (*Decomposition, error) {
	if period < 2 {
		return nil, fmt.Errorf("timeseries: decompose period %d, want >= 2", period)
	}
	if len(values) < 2*period {
		return nil, fmt.Errorf("timeseries: decompose needs >= %d samples, have %d: %w",
			2*period, len(values), ErrShortHistory)
	}
	n := len(values)
	d := &Decomposition{
		Period:   period,
		Trend:    make([]float64, n),
		Seasonal: make([]float64, n),
		Residual: make([]float64, n),
	}

	// Centered moving average; for even periods average two windows.
	half := period / 2
	trendAt := func(i int) (float64, bool) {
		if i < half || i >= n-half {
			return 0, false
		}
		if period%2 == 1 {
			var sum float64
			for j := i - half; j <= i+half; j++ {
				sum += values[j]
			}
			return sum / float64(period), true
		}
		if i+half >= n {
			return 0, false
		}
		var sum float64
		for j := i - half; j < i+half; j++ {
			sum += values[j]
		}
		a := sum / float64(period)
		sum = 0
		for j := i - half + 1; j <= i+half; j++ {
			sum += values[j]
		}
		b := sum / float64(period)
		return (a + b) / 2, true
	}

	// Seasonal component: mean detrended value per phase.
	phaseSum := make([]float64, period)
	phaseCount := make([]int, period)
	for i := 0; i < n; i++ {
		if t, ok := trendAt(i); ok {
			phaseSum[i%period] += values[i] - t
			phaseCount[i%period]++
		}
	}
	season := make([]float64, period)
	var seasonMean float64
	for p := 0; p < period; p++ {
		if phaseCount[p] > 0 {
			season[p] = phaseSum[p] / float64(phaseCount[p])
		}
		seasonMean += season[p]
	}
	seasonMean /= float64(period)
	for p := range season {
		season[p] -= seasonMean // zero-mean seasonal component
	}

	// Fill outputs; trend at the edges is extended from the nearest
	// interior estimate so the components always sum to the series.
	firstTrend, lastTrend := 0.0, 0.0
	firstSet := false
	for i := 0; i < n; i++ {
		if t, ok := trendAt(i); ok {
			if !firstSet {
				firstTrend = t
				firstSet = true
			}
			lastTrend = t
			d.Trend[i] = t
		}
	}
	for i := 0; i < n; i++ {
		if _, ok := trendAt(i); !ok {
			if i < half {
				d.Trend[i] = firstTrend
			} else {
				d.Trend[i] = lastTrend
			}
		}
		d.Seasonal[i] = season[i%period]
		d.Residual[i] = values[i] - d.Trend[i] - d.Seasonal[i]
	}
	return d, nil
}

// Reconstruct returns trend + seasonal + residual, which equals the input
// series up to floating-point error.
func (d *Decomposition) Reconstruct() []float64 {
	out := make([]float64, len(d.Trend))
	for i := range out {
		out[i] = d.Trend[i] + d.Seasonal[i] + d.Residual[i]
	}
	return out
}

// Deseasonalize returns the series with the seasonal component removed —
// useful as a preprocessing step for non-seasonal forecasters.
func (d *Decomposition) Deseasonalize(values []float64) ([]float64, error) {
	if len(values) != len(d.Seasonal) {
		return nil, fmt.Errorf("timeseries: deseasonalize length %d, decomposition has %d",
			len(values), len(d.Seasonal))
	}
	out := make([]float64, len(values))
	for i := range values {
		out[i] = values[i] - d.Seasonal[i]
	}
	return out, nil
}
