package httpapi

import (
	"net/http"
	"net/http/pprof"

	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/rapminer/explain"
)

// Debug is the debug surface the serve and monitor binaries share. Mount
// registers a route for every source that is set and leaves the others
// off.
type Debug struct {
	// Registry serves GET /metrics (content-negotiated Prometheus or
	// OpenMetrics text); setting it also mounts GET /debug/spans and
	// GET /debug/slo.
	Registry *obs.Registry
	// Runs serves GET /debug/runs and GET /debug/runs/{id}.
	Runs *explain.Store
	// SLO serves GET /debug/slo; nil serves a bare report (uptime, empty
	// endpoint windows) for a process that serves no API traffic.
	SLO http.Handler
	// Flight serves GET /debug/flight, GET /debug/flight/{id} and
	// POST /debug/flight/capture.
	Flight *flight.Recorder
	// Pprof mounts the Go profiler under /debug/pprof/.
	Pprof bool
}

// Mount registers the debug routes on mux.
func (d Debug) Mount(mux *http.ServeMux) {
	if d.Registry != nil {
		mux.Handle("GET /metrics", obs.WithUptime(d.Registry, d.Registry.Handler()))
		mux.Handle("GET /debug/spans", obs.SpansHandler())
		slo := d.SLO
		if slo == nil {
			slo = newSLOState(d.Registry, nil).handler()
		}
		mux.Handle("GET /debug/slo", slo)
	}
	if d.Runs != nil {
		mux.Handle("GET /debug/runs", d.Runs.RunsHandler())
		mux.Handle("GET /debug/runs/{id}", d.Runs.RunHandler())
	}
	if d.Flight != nil {
		mux.Handle("GET /debug/flight", d.Flight.IndexHandler())
		mux.Handle("GET /debug/flight/{id}", d.Flight.ArchiveHandler())
		mux.Handle("POST /debug/flight/capture", d.Flight.CaptureHandler())
	}
	if d.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}
