package httpapi

import (
	"context"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/rapminer/explain"
)

// Flight-recorder wiring: the recorder itself (internal/flight) knows
// nothing about HTTP, SLO windows or explain reports — this file is the
// adapter that feeds it the service's telemetry and artifacts.

// maxExemplarRuns bounds how many exemplar-referenced explain reports one
// bundle carries; exemplars mark the slowest/degraded requests, so the
// first few are the interesting ones.
const maxExemplarRuns = 16

// Server is the service handler plus its operational controls: the flight
// recorder (start its trigger loop with Flight().Run) and the drain switch
// that flips /readyz before shutdown. It is itself the service's
// http.Handler.
type Server struct {
	handler  http.Handler
	flight   *flight.Recorder
	slo      *sloState
	batch    batchSaturation
	draining atomic.Bool
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Flight returns the service's flight recorder. The caller owns the
// trigger loop: `go srv.Flight().Run(ctx)`. Manual captures work without
// the loop.
func (s *Server) Flight() *flight.Recorder { return s.flight }

// SetDraining flips the /readyz verdict; commands call SetDraining(true)
// when shutdown begins so load balancers stop routing new work while
// in-flight requests finish.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// readyzResponse is the GET /readyz document.
type readyzResponse struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
	// Queue fill at answer time, so a not-ready probe is self-explaining.
	BatchQueueDepth int `json:"batch_queue_depth"`
	BatchCapacity   int `json:"batch_capacity"`
}

// handleReadyz serves the readiness probe. Where /healthz answers "is the
// process alive" (always yes once serving), /readyz answers "should a load
// balancer send this instance more work": 503 while draining for shutdown
// or while the batch queue is at capacity — the instance would only answer
// new batch work with backpressure anyway.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	resp := readyzResponse{Ready: true}
	if s.batch != nil {
		resp.BatchQueueDepth = s.batch.Depth()
		resp.BatchCapacity = s.batch.Capacity()
	}
	switch {
	case s.draining.Load():
		resp.Ready = false
		resp.Reason = "draining: shutdown in progress"
	case s.batch != nil && resp.BatchCapacity > 0 && resp.BatchQueueDepth >= resp.BatchCapacity:
		resp.Ready = false
		resp.Reason = "batch queue at capacity"
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// flightStatus adapts the 1-minute SLO windows and batch queue into the
// telemetry snapshot the trigger rules evaluate.
func (s *sloState) flightStatus() flight.Status {
	st := flight.Status{Endpoints: make(map[string]flight.EndpointStatus, len(s.trackers))}
	for route, t := range s.trackers {
		w := t.window(time.Minute)
		st.Endpoints[route] = flight.EndpointStatus{
			Requests:     w.Requests,
			P99MS:        w.P99MS,
			ErrorRate:    w.ErrorRate,
			DegradedRate: w.DegradedRate,
		}
	}
	if s.batch != nil {
		st.QueueDepth = s.batch.Depth()
		st.QueueCapacity = s.batch.Capacity()
	}
	return st
}

// flightSources builds the service-level bundle artifacts: the SLO report,
// a full metrics snapshot, recent spans grouped by trace, and the explain
// reports of the runs the latency histogram's exemplars point at — i.e.
// the slowest/degraded localizations still resolvable at capture time.
func flightSources(reg *obs.Registry, slo *sloState, runs *explain.Store) []flight.Source {
	sources := append([]flight.Source{{Name: "slo.json", Fetch: func(context.Context) ([]flight.Artifact, error) {
		return flight.JSONArtifact("slo.json", slo.report())
	}}}, flight.TelemetrySources(reg)...)
	return append(sources,
		flight.Source{Name: "runs", Fetch: func(context.Context) ([]flight.Artifact, error) {
			var out []flight.Artifact
			seen := make(map[string]bool)
			exemplars := reg.FamilyExemplars("http_request_duration_seconds")
			// Slowest first: when the cap bites, keep the worst offenders.
			sort.Slice(exemplars, func(i, j int) bool {
				return exemplars[i].Value > exemplars[j].Value
			})
			for _, ex := range exemplars {
				if ex.TraceID == "" || seen[ex.TraceID] {
					continue
				}
				seen[ex.TraceID] = true
				rep, ok := runs.Get(ex.TraceID)
				if !ok {
					continue // exemplar outlived the bounded run store
				}
				files, err := flight.JSONArtifact("runs/"+ex.TraceID+".json", rep)
				if err != nil {
					return nil, err
				}
				out = append(out, files...)
				if len(out) >= maxExemplarRuns {
					break
				}
			}
			return out, nil
		}},
	)
}
