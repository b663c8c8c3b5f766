package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/anomaly"
	"repro/internal/kpi"
	"repro/internal/obs"
)

// ContinuousRunner is the sliding-window continuous-localization mode: it
// holds one long-lived snapshot per KPI, applies per-tick deltas to it in
// place (kpi.ApplyDelta), re-runs detection only over the touched leaves
// (anomaly.LabelDelta) and hands the patched snapshot to the Monitor, whose
// debounce/budget/degraded machinery decides when to localize. A bounded
// window of recent tick statistics is retained for status reporting.
//
// The runner serializes ticks internally, so it is safe for concurrent use
// (the HTTP ingestion path calls it from request goroutines). Mutating the
// held snapshot from outside the runner is not.
type ContinuousRunner struct {
	mon    *Monitor
	det    anomaly.Detector
	mx     *continuousMetrics
	window int

	mu     sync.Mutex
	snap   *kpi.Snapshot
	recent []TickStats
	ticks  int
}

// TickStats records one continuous tick for the sliding window.
type TickStats struct {
	Time      time.Time
	Kind      EventKind
	Deviation float64
	// Delta reports whether the tick was a delta (true) or a full snapshot
	// (false).
	Delta bool
	// Touched is the number of leaves the tick updated or added; full
	// snapshots count every leaf.
	Touched int
	// Flipped is how many touched leaves changed their anomaly label.
	Flipped int
	// Patched reports that the tick patched the columnar frame in place
	// rather than (re)building it.
	Patched bool
	// Apply is the wall time of delta application plus incremental
	// relabeling (zero for full snapshots).
	Apply time.Duration
}

// NewContinuous builds a continuous runner around a Monitor configured from
// cfg. The monitor is forced into PreLabeled mode — the runner labels
// incrementally as deltas apply, so the full detector pass before
// localization would be redundant work. window bounds the retained tick
// statistics (how many recent ticks Window reports).
func NewContinuous(cfg Config, window int) (*ContinuousRunner, error) {
	if window < 1 {
		return nil, fmt.Errorf("pipeline: continuous window %d, want >= 1", window)
	}
	cfg.PreLabeled = true
	mon, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &ContinuousRunner{
		mon:    mon,
		det:    cfg.Detector,
		mx:     newContinuousMetrics(cfg.Registry),
		window: window,
	}, nil
}

// Monitor exposes the underlying monitor (incident state, config).
func (r *ContinuousRunner) Monitor() *Monitor { return r.mon }

// Len returns the held snapshot's leaf count, or 0 before the first
// ObserveSnapshot.
func (r *ContinuousRunner) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.snap == nil {
		return 0
	}
	return r.snap.Len()
}

// Schema returns the held snapshot's schema, or nil before the first
// ObserveSnapshot.
func (r *ContinuousRunner) Schema() *kpi.Schema {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.snap == nil {
		return nil
	}
	return r.snap.Schema
}

// Ticks returns the number of processed ticks (snapshots and deltas).
func (r *ContinuousRunner) Ticks() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ticks
}

// Window returns a copy of the retained tick statistics, oldest first; at
// most the configured window length.
func (r *ContinuousRunner) Window() []TickStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]TickStats(nil), r.recent...)
}

// ObserveSnapshot installs (or replaces) the long-lived snapshot and
// processes it as one tick. The snapshot is labeled in full — it is the
// baseline every subsequent delta patches against. A snapshot with a
// different schema simply replaces the old world; that is the fallback of
// the delta contract, which cannot patch across schemas.
func (r *ContinuousRunner) ObserveSnapshot(ctx context.Context, ts time.Time, snap *kpi.Snapshot) (Event, error) {
	if snap == nil {
		return Event{}, errors.New("pipeline: nil snapshot")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := anomaly.Label(snap, r.det)
	// Warm the columnar caches now: the baseline install is the expensive
	// tick, and a warm frame is what lets every subsequent delta take the
	// patch-in-place path instead of a lazy rebuild mid-incident.
	snap.Columns()
	snap.AnomalousPostings()
	r.snap = snap
	r.mx.rebuilt.Inc()
	r.mx.touched.Observe(float64(snap.Len()))
	ev, err := r.mon.ProcessContext(ctx, ts, snap)
	if err != nil {
		return ev, err
	}
	r.push(TickStats{
		Time: ts, Kind: ev.Kind, Deviation: ev.Deviation,
		Touched: snap.Len(), Flipped: n,
	})
	return ev, nil
}

// ObserveDelta applies one tick's delta to the held snapshot, relabels the
// touched leaves, and processes the patched snapshot. The delta is validated
// atomically by ApplyDelta: on error the snapshot is untouched and no tick
// is recorded.
func (r *ContinuousRunner) ObserveDelta(ctx context.Context, ts time.Time, d kpi.Delta) (Event, kpi.ApplyResult, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.snap == nil {
		return Event{}, kpi.ApplyResult{}, errors.New("pipeline: delta before first snapshot")
	}
	// The pipeline.apply span covers the interval TickStats.Apply
	// measures: delta application plus incremental relabeling.
	_, span := obs.StartSpan(ctx, "pipeline.apply")
	start := time.Now()
	res, err := r.snap.ApplyDelta(d)
	if err != nil {
		span.End()
		return Event{}, res, err
	}
	flipped := anomaly.LabelDelta(r.snap, r.det, res.Touched)
	apply := time.Since(start)
	span.SetAttr("touched", len(res.Touched))
	span.SetAttr("flipped", len(flipped))
	span.End()

	r.mx.applySeconds.Observe(apply.Seconds())
	r.mx.touched.Observe(float64(len(res.Touched)))
	if res.PatchedFrame {
		r.mx.patched.Inc()
	} else {
		r.mx.rebuilt.Inc()
	}

	ev, err := r.mon.ProcessContext(ctx, ts, r.snap)
	if err != nil {
		return ev, res, err
	}
	r.push(TickStats{
		Time: ts, Kind: ev.Kind, Deviation: ev.Deviation, Delta: true,
		Touched: len(res.Touched), Flipped: len(flipped),
		Patched: res.PatchedFrame, Apply: apply,
	})
	return ev, res, nil
}

// push appends one tick to the sliding window, evicting the oldest past the
// window length.
func (r *ContinuousRunner) push(st TickStats) {
	r.ticks++
	r.recent = append(r.recent, st)
	if len(r.recent) > r.window {
		r.recent = r.recent[len(r.recent)-r.window:]
	}
}

// continuousMetrics instruments the delta-ingestion path: apply latency,
// leaves touched per tick, and the patched-vs-rebuilt split that tells an
// operator whether the incremental path is actually being hit.
type continuousMetrics struct {
	applySeconds *obs.Histogram
	touched      *obs.Histogram
	patched      *obs.Counter
	rebuilt      *obs.Counter
}

// deltaApplyBuckets spans patch-in-place latencies, in seconds: 100 µs up
// to 5 s.
var deltaApplyBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5}

// touchedLeafBuckets spans touched-set sizes per tick: single leaves up to
// millions (a full snapshot install).
var touchedLeafBuckets = []float64{1, 10, 100, 1000, 1e4, 1e5, 1e6}

func newContinuousMetrics(reg *obs.Registry) *continuousMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return &continuousMetrics{
		applySeconds: reg.Histogram("pipeline_delta_apply_seconds",
			"Wall time of delta application plus incremental relabel per tick.", deltaApplyBuckets),
		touched: reg.Histogram("pipeline_tick_touched_leaves",
			"Leaves touched (updated + added) per continuous tick.", touchedLeafBuckets),
		patched: reg.Counter("pipeline_frame_patched_total",
			"Continuous ticks that patched the columnar frame in place."),
		rebuilt: reg.Counter("pipeline_frame_rebuilt_total",
			"Continuous ticks that (re)built the columnar frame: full snapshot installs and deltas landing before the frame was built."),
	}
}
