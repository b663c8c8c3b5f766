package timeseries

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var testStart = time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC)

func TestNewSeriesValidation(t *testing.T) {
	if _, err := NewSeries(testStart, 0, nil); err == nil {
		t.Error("NewSeries accepted zero step")
	}
	s, err := NewSeries(testStart, time.Minute, []float64{1, 2, 3})
	if err != nil {
		t.Fatalf("NewSeries: %v", err)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if got := s.TimeAt(2); !got.Equal(testStart.Add(2 * time.Minute)) {
		t.Errorf("TimeAt(2) = %v", got)
	}
}

func TestSeriesSlice(t *testing.T) {
	s, _ := NewSeries(testStart, time.Minute, []float64{0, 1, 2, 3, 4})
	sub, err := s.Slice(1, 4)
	if err != nil {
		t.Fatalf("Slice: %v", err)
	}
	if sub.Len() != 3 || sub.Values[0] != 1 {
		t.Errorf("Slice = %+v", sub)
	}
	if !sub.Start.Equal(testStart.Add(time.Minute)) {
		t.Errorf("Slice start = %v", sub.Start)
	}
	if _, err := s.Slice(3, 2); err == nil {
		t.Error("Slice accepted inverted range")
	}
	if _, err := s.Slice(-1, 2); err == nil {
		t.Error("Slice accepted negative start")
	}
	if _, err := s.Slice(0, 6); err == nil {
		t.Error("Slice accepted overrun")
	}
}

func TestSummarize(t *testing.T) {
	st := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if st.Mean != 5 {
		t.Errorf("Mean = %v, want 5", st.Mean)
	}
	if math.Abs(st.Std-2) > 1e-12 {
		t.Errorf("Std = %v, want 2", st.Std)
	}
	if st.Min != 2 || st.Max != 9 || st.N != 8 {
		t.Errorf("Stats = %+v", st)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 || empty.Min != 0 || empty.Max != 0 {
		t.Errorf("Summarize(nil) = %+v", empty)
	}
}

func TestMovingAverage(t *testing.T) {
	m := MovingAverage{Window: 3}
	got, err := m.Forecast([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatalf("Forecast: %v", err)
	}
	if got != 4 {
		t.Errorf("Forecast = %v, want 4", got)
	}
	if _, err := m.Forecast([]float64{1, 2}); !errors.Is(err, ErrShortHistory) {
		t.Errorf("short history error = %v", err)
	}
	if _, err := (MovingAverage{}).Forecast([]float64{1}); err == nil {
		t.Error("zero window accepted")
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := EWMA{Alpha: 0.5}
	hist := make([]float64, 50)
	for i := range hist {
		hist[i] = 7
	}
	got, err := e.Forecast(hist)
	if err != nil {
		t.Fatalf("Forecast: %v", err)
	}
	if math.Abs(got-7) > 1e-9 {
		t.Errorf("Forecast = %v, want 7", got)
	}
	if _, err := e.Forecast(nil); !errors.Is(err, ErrShortHistory) {
		t.Errorf("empty history error = %v", err)
	}
	if _, err := (EWMA{Alpha: 0}).Forecast(hist); err == nil {
		t.Error("alpha 0 accepted")
	}
	if _, err := (EWMA{Alpha: 1.5}).Forecast(hist); err == nil {
		t.Error("alpha > 1 accepted")
	}
}

func TestSeasonalNaive(t *testing.T) {
	s := SeasonalNaive{Period: 4}
	hist := []float64{10, 20, 30, 40, 11, 21, 31, 41, 12}
	got, err := s.Forecast(hist)
	if err != nil {
		t.Fatalf("Forecast: %v", err)
	}
	// Next index is 9 -> one period earlier is index 5 (value 21).
	if got != 21 {
		t.Errorf("Forecast = %v, want 21", got)
	}
	if _, err := s.Forecast(hist[:3]); !errors.Is(err, ErrShortHistory) {
		t.Errorf("short history error = %v", err)
	}
}

func TestHoltWintersTracksSeasonalSignal(t *testing.T) {
	const period = 24
	hw := HoltWinters{Period: period, Alpha: 0.4, Beta: 0.05, Gamma: 0.3}
	// Pure seasonal signal, no noise: prediction error should be small.
	signal := func(i int) float64 {
		return 100 + 30*math.Sin(2*math.Pi*float64(i%period)/period)
	}
	hist := make([]float64, 6*period)
	for i := range hist {
		hist[i] = signal(i)
	}
	got, err := hw.Forecast(hist)
	if err != nil {
		t.Fatalf("Forecast: %v", err)
	}
	want := signal(len(hist))
	if math.Abs(got-want) > 5 {
		t.Errorf("Forecast = %v, want about %v", got, want)
	}
}

func TestHoltWintersValidation(t *testing.T) {
	hw := HoltWinters{Period: 24, Alpha: 0.4, Beta: 0.05, Gamma: 0.3}
	if _, err := hw.Forecast(make([]float64, 30)); !errors.Is(err, ErrShortHistory) {
		t.Errorf("short history error = %v", err)
	}
	bad := HoltWinters{Period: 4, Alpha: 2}
	if _, err := bad.Forecast(make([]float64, 20)); err == nil {
		t.Error("invalid alpha accepted")
	}
}

func TestForecastSeries(t *testing.T) {
	s, _ := NewSeries(testStart, time.Minute, []float64{1, 2, 3, 4, 5, 6})
	preds, err := ForecastSeries(MovingAverage{Window: 2}, s, 2)
	if err != nil {
		t.Fatalf("ForecastSeries: %v", err)
	}
	want := []float64{1, 2, 1.5, 2.5, 3.5, 4.5}
	for i := range want {
		if math.Abs(preds[i]-want[i]) > 1e-12 {
			t.Errorf("preds[%d] = %v, want %v", i, preds[i], want[i])
		}
	}
	if _, err := ForecastSeries(MovingAverage{Window: 2}, s, -1); err == nil {
		t.Error("negative warmup accepted")
	}
	if _, err := ForecastSeries(MovingAverage{Window: 3}, s, 1); err == nil {
		t.Error("warmup shorter than window should surface ErrShortHistory")
	}
}

func TestResiduals(t *testing.T) {
	res, err := Residuals([]float64{3, 5}, []float64{1, 10})
	if err != nil {
		t.Fatalf("Residuals: %v", err)
	}
	if res[0] != 2 || res[1] != -5 {
		t.Errorf("Residuals = %v", res)
	}
	if _, err := Residuals([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestSeasonalProfileShape(t *testing.T) {
	p := DefaultProfile(1000)
	// Peak at PeakHour beats trough 12h away.
	peakDay := time.Date(2026, 2, 2, 21, 0, 0, 0, time.UTC) // a Monday
	trough := time.Date(2026, 2, 2, 9, 0, 0, 0, time.UTC)
	if p.ValueAt(peakDay) <= p.ValueAt(trough) {
		t.Error("profile peak not above trough")
	}
	// Weekend boost applies.
	sat := time.Date(2026, 2, 7, 21, 0, 0, 0, time.UTC)
	if p.ValueAt(sat) <= p.ValueAt(peakDay) {
		t.Error("weekend boost missing")
	}
	// Never negative even with extreme amplitude.
	extreme := SeasonalProfile{Base: 10, DailyAmplitude: 3, PeakHour: 21}
	low := time.Date(2026, 2, 2, 9, 0, 0, 0, time.UTC)
	if v := extreme.ValueAt(low); v < 0 {
		t.Errorf("negative profile value %v", v)
	}
}

func TestGenerateDeterministicPerSeed(t *testing.T) {
	p := DefaultProfile(500)
	a := p.Generate(rand.New(rand.NewSource(1)), testStart, time.Minute, 100)
	b := p.Generate(rand.New(rand.NewSource(1)), testStart, time.Minute, 100)
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("values diverge at %d", i)
		}
	}
	c := p.Generate(rand.New(rand.NewSource(2)), testStart, time.Minute, 100)
	same := true
	for i := range a.Values {
		if a.Values[i] != c.Values[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical noise")
	}
}

func TestGenerateNonNegativeQuick(t *testing.T) {
	f := func(seed int64, base uint16) bool {
		p := DefaultProfile(float64(base))
		s := p.Generate(rand.New(rand.NewSource(seed)), testStart, time.Minute, 64)
		for _, v := range s.Values {
			if v < 0 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestForecasterNames(t *testing.T) {
	for _, f := range []Forecaster{
		MovingAverage{Window: 5},
		EWMA{Alpha: 0.3},
		SeasonalNaive{Period: 1440},
		HoltWinters{Period: 24},
	} {
		if f.Name() == "" {
			t.Errorf("%T has empty name", f)
		}
	}
}

// Series is a regularly sampled univariate KPI stream.
type Series struct {
	Start  time.Time
	Step   time.Duration
	Values []float64
}

// NewSeries validates the sampling parameters.
func NewSeries(start time.Time, step time.Duration, values []float64) (*Series, error) {
	if step <= 0 {
		return nil, fmt.Errorf("timeseries: non-positive step %v", step)
	}
	return &Series{Start: start, Step: step, Values: values}, nil
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Values) }

// TimeAt returns the timestamp of sample i.
func (s *Series) TimeAt(i int) time.Time {
	return s.Start.Add(time.Duration(i) * s.Step)
}

// Slice returns the sub-series [from, to).
func (s *Series) Slice(from, to int) (*Series, error) {
	if from < 0 || to > len(s.Values) || from > to {
		return nil, fmt.Errorf("timeseries: slice [%d, %d) out of range [0, %d)", from, to, len(s.Values))
	}
	return &Series{
		Start:  s.TimeAt(from),
		Step:   s.Step,
		Values: s.Values[from:to],
	}, nil
}

// Stats summarizes a sample set.
type Stats struct {
	Mean, Std, Min, Max float64
	N                   int
}

// Summarize computes mean, population standard deviation and range.
func Summarize(values []float64) Stats {
	st := Stats{N: len(values), Min: math.Inf(1), Max: math.Inf(-1)}
	if st.N == 0 {
		st.Min, st.Max = 0, 0
		return st
	}
	var sum float64
	for _, v := range values {
		sum += v
		st.Min = math.Min(st.Min, v)
		st.Max = math.Max(st.Max, v)
	}
	st.Mean = sum / float64(st.N)
	var ss float64
	for _, v := range values {
		d := v - st.Mean
		ss += d * d
	}
	st.Std = math.Sqrt(ss / float64(st.N))
	return st
}

// ForecastSeries runs a forecaster over a series, producing the predicted
// value for every index in [warmup, len). Indices before warmup are filled
// with the actual values (no prediction available yet).
func ForecastSeries(f Forecaster, s *Series, warmup int) ([]float64, error) {
	if warmup < 0 || warmup > s.Len() {
		return nil, fmt.Errorf("timeseries: warmup %d out of range", warmup)
	}
	out := make([]float64, s.Len())
	copy(out, s.Values[:warmup])
	for i := warmup; i < s.Len(); i++ {
		p, err := f.Forecast(s.Values[:i])
		if err != nil {
			return nil, fmt.Errorf("timeseries: forecast at %d: %w", i, err)
		}
		out[i] = p
	}
	return out, nil
}

// Residuals returns actual - forecast for aligned slices.
func Residuals(actual, forecast []float64) ([]float64, error) {
	if len(actual) != len(forecast) {
		return nil, fmt.Errorf("timeseries: residuals length mismatch %d vs %d", len(actual), len(forecast))
	}
	out := make([]float64, len(actual))
	for i := range actual {
		out[i] = actual[i] - forecast[i]
	}
	return out, nil
}

// Generate produces a series of n samples starting at start with the given
// step, adding multiplicative Gaussian noise drawn from r.
func (p SeasonalProfile) Generate(r *rand.Rand, start time.Time, step time.Duration, n int) *Series {
	values := make([]float64, n)
	for i := range values {
		v := p.ValueAt(start.Add(time.Duration(i) * step))
		v *= 1 + p.NoiseStd*r.NormFloat64()
		if v < 0 {
			v = 0
		}
		values[i] = v
	}
	return &Series{Start: start, Step: step, Values: values}
}
