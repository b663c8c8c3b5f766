package httpapi

import (
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Saturation observability: sloTracker keeps per-endpoint rolling windows
// of latency, traffic and failure classes, served at GET /debug/slo. Where
// /metrics answers "what has this process ever done" (cumulative counters
// a scraper turns into rates), /debug/slo answers the operator's live
// question — "what are p50/p99, the degraded rate and the backpressure
// rate right now" — with no scraper in the loop, over 1m and 5m windows.

// sloWindows are the rolling windows /debug/slo reports.
var sloWindows = []time.Duration{time.Minute, 5 * time.Minute}

// sloSlotDur is the ring resolution: fine enough that a 1m window is off by
// at most one filling slot.
const sloSlotDur = 5 * time.Second

// sloLatencyBuckets resolve client-visible latency from 0.5ms to ~2min on
// a log scale.
var sloLatencyBuckets = obs.ExpBuckets(0.0005, 2, 18)

// sloTracker accumulates one endpoint's rolling telemetry.
type sloTracker struct {
	route    string
	latency  *obs.RollingHistogram
	requests *obs.RollingCounter
	errors   *obs.RollingCounter // 5xx answers other than 503
	degraded *obs.RollingCounter // responses carrying a degraded result
	rejected *obs.RollingCounter // 503 backpressure rejections
	timeouts *obs.RollingCounter // 504 deadline expiries
}

func newSLOTracker(route string) *sloTracker {
	span := sloWindows[len(sloWindows)-1]
	return &sloTracker{
		route:    route,
		latency:  obs.NewRollingHistogram(sloLatencyBuckets, sloSlotDur, span),
		requests: obs.NewRollingCounter(sloSlotDur, span),
		errors:   obs.NewRollingCounter(sloSlotDur, span),
		degraded: obs.NewRollingCounter(sloSlotDur, span),
		rejected: obs.NewRollingCounter(sloSlotDur, span),
		timeouts: obs.NewRollingCounter(sloSlotDur, span),
	}
}

// record folds one finished request into the windows.
func (t *sloTracker) record(elapsed time.Duration, status int, degraded bool) {
	t.latency.Observe(elapsed.Seconds())
	t.requests.Inc()
	switch {
	case status == http.StatusServiceUnavailable:
		t.rejected.Inc()
	case status == http.StatusGatewayTimeout:
		t.timeouts.Inc()
	case status >= 500:
		t.errors.Inc()
	}
	if degraded {
		t.degraded.Inc()
	}
}

// SLOEndpointWindow is one endpoint's view over one rolling window, as
// served inside SLOReport and rendered by `rapmctl slo`.
type SLOEndpointWindow struct {
	Requests         float64 `json:"requests"`
	RatePerSec       float64 `json:"rate_per_sec"`
	P50MS            float64 `json:"p50_ms"`
	P90MS            float64 `json:"p90_ms"`
	P99MS            float64 `json:"p99_ms"`
	MeanMS           float64 `json:"mean_ms"`
	DegradedRate     float64 `json:"degraded_rate"`
	BackpressureRate float64 `json:"backpressure_rate"`
	TimeoutRate      float64 `json:"timeout_rate"`
	ErrorRate        float64 `json:"error_rate"`
}

// window summarizes the tracker over one window. Rates are fractions of
// the window's requests (0 when idle).
func (t *sloTracker) window(w time.Duration) SLOEndpointWindow {
	snap := t.latency.Window(w)
	out := SLOEndpointWindow{
		Requests:   t.requests.Sum(w),
		RatePerSec: t.requests.Rate(w),
		P50MS:      snap.Quantile(0.50) * 1000,
		P90MS:      snap.Quantile(0.90) * 1000,
		P99MS:      snap.Quantile(0.99) * 1000,
	}
	if n := snap.Count(); n > 0 {
		out.MeanMS = snap.Sum() / float64(n) * 1000
	}
	if out.Requests > 0 {
		out.DegradedRate = t.degraded.Sum(w) / out.Requests
		out.BackpressureRate = t.rejected.Sum(w) / out.Requests
		out.TimeoutRate = t.timeouts.Sum(w) / out.Requests
		out.ErrorRate = t.errors.Sum(w) / out.Requests
	}
	return out
}

// sloState is the handler-wide SLO page state: one tracker per route of
// interest plus the saturation gauges worth showing next to them.
type sloState struct {
	start    time.Time
	trackers map[string]*sloTracker
	inflight *obs.Gauge
	batch    batchSaturation
}

// batchSaturation is the slice of BatchExecutor the SLO page reads: the
// queue's instantaneous fill and its ceiling.
type batchSaturation interface {
	Capacity() int
	Depth() int
}

// sloRoutes are the endpoints the SLO page windows; everything else still
// lands in the cumulative /metrics histograms.
var sloRoutes = []string{
	"POST /v1/localize",
	"POST /v1/localize/batch",
	"POST /v1/observe",
	"POST /v1/observe/snapshot",
	"POST /v1/observe/delta",
}

func newSLOState(reg *obs.Registry, batch batchSaturation) *sloState {
	s := &sloState{
		start:    time.Now(),
		trackers: make(map[string]*sloTracker, len(sloRoutes)),
		inflight: reg.Gauge("http_inflight_requests", "Requests currently being served."),
		batch:    batch,
	}
	for _, r := range sloRoutes {
		s.trackers[r] = newSLOTracker(r)
	}
	return s
}

// record folds one finished request into its route's tracker, if tracked.
func (s *sloState) record(route string, elapsed time.Duration, status int, degraded bool) {
	if t, ok := s.trackers[route]; ok {
		t.record(elapsed, status, degraded)
	}
}

// SLOReport is the GET /debug/slo document.
type SLOReport struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// InflightRequests and the batch queue fields are instantaneous
	// saturation readings, not windowed.
	InflightRequests int `json:"inflight_requests"`
	BatchQueueDepth  int `json:"batch_queue_depth"`
	BatchCapacity    int `json:"batch_capacity"`
	// Windows maps "1m"/"5m" to per-endpoint rolling views.
	Windows map[string]map[string]SLOEndpointWindow `json:"windows"`
}

// report assembles the current SLO view.
func (s *sloState) report() SLOReport {
	rep := SLOReport{
		UptimeSeconds:    obs.Uptime().Seconds(),
		InflightRequests: int(s.inflight.Value()),
		Windows:          make(map[string]map[string]SLOEndpointWindow, len(sloWindows)),
	}
	if s.batch != nil {
		rep.BatchCapacity = s.batch.Capacity()
		rep.BatchQueueDepth = s.batch.Depth()
	}
	for _, w := range sloWindows {
		name := w.String() // "1m0s" -> trim below
		if w == time.Minute {
			name = "1m"
		} else if w == 5*time.Minute {
			name = "5m"
		}
		per := make(map[string]SLOEndpointWindow, len(s.trackers))
		for route, t := range s.trackers {
			per[route] = t.window(w)
		}
		rep.Windows[name] = per
	}
	return rep
}

// handler serves GET /debug/slo.
func (s *sloState) handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.report())
	})
}
