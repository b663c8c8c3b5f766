// Package leafforecast produces the per-leaf forecast values the
// localization pipeline needs, from observed actuals alone. The paper
// assumes "we can get the corresponding predicted values via some
// prediction methods" (Section III-C); this package is that method: a
// Tracker keeps a bounded history per most fine-grained attribute
// combination and fills in each leaf's forecast with a configurable
// univariate forecaster, handling cold starts and leaves that appear or
// disappear between ticks.
package leafforecast

import (
	"errors"
	"fmt"

	"repro/internal/kpi"
	"repro/internal/timeseries"
)

// Config assembles a Tracker.
type Config struct {
	// Forecaster predicts the next value from a leaf's history window.
	Forecaster timeseries.Forecaster
	// Window is the per-leaf history capacity (ring buffer length).
	Window int
	// MinHistory is the minimum number of observations before the
	// tracker forecasts a leaf; colder leaves get Fallback behavior.
	MinHistory int
}

// DefaultConfig tracks one day of minute samples per leaf and forecasts
// with an EWMA after 30 observations.
func DefaultConfig() Config {
	return Config{
		Forecaster: timeseries.EWMA{Alpha: 0.3},
		Window:     1440,
		MinHistory: 30,
	}
}

// Tracker maintains per-leaf history and produces forecast snapshots. It
// is not safe for concurrent use.
type Tracker struct {
	cfg    Config
	schema *kpi.Schema
	leaves map[string]*ring
}

// New validates the configuration.
func New(schema *kpi.Schema, cfg Config) (*Tracker, error) {
	if schema == nil {
		return nil, errors.New("leafforecast: nil schema")
	}
	if cfg.Forecaster == nil {
		return nil, errors.New("leafforecast: nil forecaster")
	}
	if cfg.Window < 2 {
		return nil, fmt.Errorf("leafforecast: window %d, want >= 2", cfg.Window)
	}
	if cfg.MinHistory < 1 || cfg.MinHistory > cfg.Window {
		return nil, fmt.Errorf("leafforecast: MinHistory %d out of [1, %d]", cfg.MinHistory, cfg.Window)
	}
	return &Tracker{
		cfg:    cfg,
		schema: schema,
		leaves: make(map[string]*ring),
	}, nil
}

// Observe appends the snapshot's actual values to each leaf's history.
// Call it once per tick with healthy (or at least believed-healthy) data;
// during an open incident the caller usually freezes observation so the
// failure does not contaminate the baseline.
func (t *Tracker) Observe(snap *kpi.Snapshot) error {
	if snap == nil {
		return errors.New("leafforecast: nil snapshot")
	}
	if snap.Schema != t.schema {
		return errors.New("leafforecast: snapshot schema differs from tracker schema")
	}
	for _, l := range snap.Leaves {
		k := l.Combo.Key()
		r, ok := t.leaves[k]
		if !ok {
			r = newRing(t.cfg.Window)
			t.leaves[k] = r
		}
		r.push(l.Actual)
	}
	return nil
}

// Forecast returns a copy of the snapshot whose Forecast values are the
// tracker's one-step-ahead predictions. Leaves with insufficient history
// get their own actual value as the forecast (so they never alarm), and
// the returned count reports how many leaves were genuinely forecast.
func (t *Tracker) Forecast(snap *kpi.Snapshot) (*kpi.Snapshot, int, error) {
	if snap == nil {
		return nil, 0, errors.New("leafforecast: nil snapshot")
	}
	if snap.Schema != t.schema {
		return nil, 0, errors.New("leafforecast: snapshot schema differs from tracker schema")
	}
	out := snap.Clone()
	forecast := 0
	out.Rewrite(func(l kpi.Leaf) (float64, float64, bool) {
		r, ok := t.leaves[l.Combo.Key()]
		if !ok || r.len() < t.cfg.MinHistory {
			return l.Actual, l.Actual, l.Anomalous // cold start: never alarm
		}
		pred, err := t.cfg.Forecaster.Forecast(r.values())
		if err != nil {
			// The forecaster needs more history than MinHistory
			// guarantees (e.g. a long seasonal period): degrade to
			// cold-start behavior rather than failing the tick.
			return l.Actual, l.Actual, l.Anomalous
		}
		forecast++
		return l.Actual, pred, l.Anomalous
	})
	return out, forecast, nil
}

// ring is a fixed-capacity append-only window of float64 samples.
type ring struct {
	buf   []float64
	start int
	n     int
}

func newRing(capacity int) *ring {
	return &ring{buf: make([]float64, capacity)}
}

func (r *ring) push(v float64) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = v
		r.n++
		return
	}
	r.buf[r.start] = v
	r.start = (r.start + 1) % len(r.buf)
}

func (r *ring) len() int { return r.n }

// values returns the window oldest-first as a fresh slice.
func (r *ring) values() []float64 {
	out := make([]float64, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}
