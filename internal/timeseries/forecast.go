// Package timeseries provides the KPI forecasting substrate: series
// containers, seasonal traffic generators and simple forecasters. The
// RAPMiner paper treats leaf-level forecasting as an external building block
// ("we do not take the prediction methods as our primary work"); this
// package supplies that block so the repository is a complete pipeline from
// raw KPI streams to localized root anomaly patterns.
package timeseries

import (
	"errors"
	"fmt"
)

// ErrShortHistory reports that a forecaster was given fewer samples than it
// needs.
var ErrShortHistory = errors.New("timeseries: history too short")

// Forecaster predicts the next value of a series from its history.
type Forecaster interface {
	// Forecast returns the one-step-ahead prediction for the sample
	// following history.
	Forecast(history []float64) (float64, error)
	// Name identifies the forecaster in reports.
	Name() string
}

// MovingAverage predicts the mean of the last Window samples.
type MovingAverage struct {
	Window int
}

var _ Forecaster = MovingAverage{}

// Name implements Forecaster.
func (m MovingAverage) Name() string { return fmt.Sprintf("ma(%d)", m.Window) }

// Forecast implements Forecaster.
func (m MovingAverage) Forecast(history []float64) (float64, error) {
	if m.Window <= 0 {
		return 0, fmt.Errorf("timeseries: moving average window %d: %w", m.Window, ErrShortHistory)
	}
	if len(history) < m.Window {
		return 0, ErrShortHistory
	}
	var sum float64
	for _, v := range history[len(history)-m.Window:] {
		sum += v
	}
	return sum / float64(m.Window), nil
}

// EWMA predicts with an exponentially weighted moving average with smoothing
// factor Alpha in (0, 1].
type EWMA struct {
	Alpha float64
}

var _ Forecaster = EWMA{}

// Name implements Forecaster.
func (e EWMA) Name() string { return fmt.Sprintf("ewma(%.2f)", e.Alpha) }

// Forecast implements Forecaster.
func (e EWMA) Forecast(history []float64) (float64, error) {
	if e.Alpha <= 0 || e.Alpha > 1 {
		return 0, fmt.Errorf("timeseries: ewma alpha %v out of (0, 1]", e.Alpha)
	}
	if len(history) == 0 {
		return 0, ErrShortHistory
	}
	level := history[0]
	for _, v := range history[1:] {
		level = e.Alpha*v + (1-e.Alpha)*level
	}
	return level, nil
}

// SeasonalNaive predicts the value observed one season (Period samples)
// earlier. With minute-granularity CDN KPIs a period of one day captures the
// dominant diurnal cycle.
type SeasonalNaive struct {
	Period int
}

var _ Forecaster = SeasonalNaive{}

// Name implements Forecaster.
func (s SeasonalNaive) Name() string { return fmt.Sprintf("snaive(%d)", s.Period) }

// Forecast implements Forecaster.
func (s SeasonalNaive) Forecast(history []float64) (float64, error) {
	if s.Period <= 0 || len(history) < s.Period {
		return 0, ErrShortHistory
	}
	return history[len(history)-s.Period], nil
}

// HoltWinters is additive triple exponential smoothing with season length
// Period and smoothing factors Alpha (level), Beta (trend), Gamma (season).
type HoltWinters struct {
	Period             int
	Alpha, Beta, Gamma float64
}

var _ Forecaster = HoltWinters{}

// Name implements Forecaster.
func (h HoltWinters) Name() string { return fmt.Sprintf("holtwinters(%d)", h.Period) }

// Forecast implements Forecaster. It needs at least two full seasons of
// history to initialize the seasonal components.
func (h HoltWinters) Forecast(history []float64) (float64, error) {
	p := h.Period
	if p <= 0 || len(history) < 2*p {
		return 0, ErrShortHistory
	}
	if bad := func(x float64) bool { return x < 0 || x > 1 }; bad(h.Alpha) || bad(h.Beta) || bad(h.Gamma) {
		return 0, fmt.Errorf("timeseries: holt-winters smoothing factors out of [0, 1]")
	}
	// Initialize level and trend from the first two seasons.
	var mean1, mean2 float64
	for i := 0; i < p; i++ {
		mean1 += history[i]
		mean2 += history[p+i]
	}
	mean1 /= float64(p)
	mean2 /= float64(p)
	level := mean1
	trend := (mean2 - mean1) / float64(p)
	season := make([]float64, p)
	for i := 0; i < p; i++ {
		season[i] = history[i] - mean1
	}
	for i := p; i < len(history); i++ {
		v := history[i]
		si := i % p
		prevLevel := level
		level = h.Alpha*(v-season[si]) + (1-h.Alpha)*(level+trend)
		trend = h.Beta*(level-prevLevel) + (1-h.Beta)*trend
		season[si] = h.Gamma*(v-level) + (1-h.Gamma)*season[si]
	}
	next := len(history) % p
	return level + trend + season[next], nil
}
