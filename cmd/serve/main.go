// Command serve exposes anomaly localization over HTTP.
//
//	serve [-addr :8080] [-pprof] [-log-level info] [-log-json]
//	      [-span-capacity 512] [-workers 0] [-batch-queue -1]
//	      [-request-timeout 0] [-read-timeout 1m] [-write-timeout 2m]
//	      [-exemplar-threshold 0] [-log-max-per-sec 50]
//	      [-flight-rules ""] [-flight-cooldown 2m] [-flight-capacity 4]
//	      [-flight-spill-dir ""] [-flight-cpu-profile 2s] [-flight-interval 5s]
//	      [-continuous]
//
// Endpoints:
//
//	GET  /healthz              liveness probe
//	GET  /readyz               readiness probe (503 while draining or queue-full)
//	GET  /v1/methods           available localization methods
//	POST /v1/localize          localize a snapshot
//	POST /v1/localize/batch    localize many snapshots over the worker pool
//	POST /v1/observe       stream actuals-only snapshots into the world (forecasts learned)
//	GET  /v1/incidents     incident lifecycle of the world
//	POST /v1/observe/snapshot    install a snapshot with its own forecasts as the world (-continuous)
//	POST /v1/observe/delta       patch the world with one tick's delta (-continuous)
//	GET  /v1/observe/continuous  statistics of the world's last 60 ticks (-continuous)
//	GET  /metrics          Prometheus text-format metrics
//	GET  /debug/spans      recent trace spans (?trace=<id>, ?group=trace)
//	GET  /debug/runs       recent localization runs (explain reports)
//	GET  /debug/runs/{id}  one run's explain report by trace ID
//	GET  /debug/slo        rolling 1m/5m latency/degraded/backpressure windows
//	GET  /debug/flight     flight-recorder bundle index
//	GET  /debug/flight/{id}     one diagnostic bundle (tar.gz)
//	POST /debug/flight/capture  capture a bundle now (?reason=...)
//	GET  /debug/pprof/     Go profiler (only with -pprof)
//
// The flight recorder watches the rolling SLO windows against -flight-rules
// (e.g. "p99-latency=500ms,error-rate=0.05,queue-saturation=0.9,gc-pause=100ms")
// and captures a diagnostic bundle — pprof profiles, the SLO report, recent
// spans, exemplar-linked explain reports, a metrics snapshot — on breach,
// at most once per -flight-cooldown per rule. POST /debug/flight/capture
// (or `rapmctl flight capture`) takes one on demand.
//
// POST /v1/localize accepts the Table III snapshot layout as
// application/json (the kpi JSON document) or text/csv, with query
// parameters method (default rapminer), k (default 3) and relabel=true to
// force re-detection. Example:
//
//	curl -X POST --data-binary @snapshot.csv -H 'Content-Type: text/csv' \
//	     'localhost:8080/v1/localize?method=rapminer&k=3'
//
// Requests carrying a W3C traceparent header join that trace; the
// response's traceparent and trace_id name the run, whose span tree and
// explain report stay fetchable at /debug/spans?trace=<id> and
// /debug/runs/<id> (rendered readably by `rapmctl explain <id>`).
//
// Logs are structured (text by default, JSON with -log-json) and every
// line carries a component attribute; see the README's "Operating in
// production" section for the metric and log schema.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/flight"
	"repro/internal/httpapi"
	"repro/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

// run parses flags, serves until the context is canceled, then shuts down
// gracefully. It prints the bound address to w once listening, so callers
// (and tests) binding port 0 can find the server.
func run(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var (
		addr            = fs.String("addr", ":8080", "listen address")
		pprofOn         = fs.Bool("pprof", false, "mount the Go profiler under /debug/pprof/")
		logLevel        = fs.String("log-level", "info", "log level: debug, info, warn, error")
		logJSON         = fs.Bool("log-json", false, "log JSON instead of text")
		shutdownTimeout = fs.Duration("shutdown-timeout", 5*time.Second, "graceful shutdown deadline")
		spanCapacity    = fs.Int("span-capacity", obs.DefaultSpanCapacity, "trace spans retained for /debug/spans")
		workers         = fs.Int("workers", 0, "batch localization workers (0 = GOMAXPROCS)")
		batchQueue      = fs.Int("batch-queue", 0, "batch items that may wait beyond the running ones (0 = 4x workers, min 16; negative = none)")
		requestTimeout  = fs.Duration("request-timeout", 0, "per-request localization deadline; expired requests answer 504 with best-so-far partial results (0 = none)")
		readTimeout     = fs.Duration("read-timeout", time.Minute, "max time to read one request including the body (0 = none)")
		writeTimeout    = fs.Duration("write-timeout", 2*time.Minute, "max time to write one response (0 = none; keep above -request-timeout and pprof profile windows)")
		exemplarMin     = fs.Duration("exemplar-threshold", 0, "retain trace exemplars only for requests at least this slow (0 = every bucket's most recent request)")
		logMaxPerSec    = fs.Float64("log-max-per-sec", 50, "per-request log lines allowed per second before sampling kicks in; excess requests are counted in rapminer_logs_suppressed_total (0 = unlimited)")
		flightRules     = fs.String("flight-rules", "", "flight-recorder triggers as kind=threshold,... (kinds: p99-latency, error-rate, degraded-rate, queue-saturation, gc-pause); empty = manual captures only")
		flightCooldown  = fs.Duration("flight-cooldown", flight.DefaultCooldown, "minimum spacing between automatic captures per rule")
		flightCapacity  = fs.Int("flight-capacity", flight.DefaultCapacity, "diagnostic bundles retained in memory for /debug/flight")
		flightSpillDir  = fs.String("flight-spill-dir", "", "also write every bundle to this directory as <id>.tar.gz")
		flightCPU       = fs.Duration("flight-cpu-profile", flight.DefaultCPUProfile, "CPU-profile window captured into each bundle")
		flightInterval  = fs.Duration("flight-interval", flight.DefaultInterval, "trigger-rule polling period")
		continuous      = fs.Bool("continuous", false, "mount the continuous-localization endpoints (/v1/observe/snapshot, /v1/observe/delta, /v1/observe/continuous)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rules, err := flight.ParseRules(*flightRules)
	if err != nil {
		return err
	}
	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	obs.ConfigureLogging(os.Stderr, level, *logJSON)
	log := obs.Logger("serve")
	obs.ConfigureDefaultSpanRing(*spanCapacity)
	// Sample Go runtime health (goroutines, heap, GC) for /metrics.
	obs.StartRuntimeCollector(ctx, nil, 0)

	apiSrv := httpapi.New(httpapi.Options{
		BatchWorkers:      *workers,
		BatchQueue:        *batchQueue,
		RequestTimeout:    *requestTimeout,
		ExemplarThreshold: exemplarMin.Seconds(),
		LogMaxPerSec:      *logMaxPerSec,
		FlightRules:       rules,
		FlightCooldown:    *flightCooldown,
		FlightCapacity:    *flightCapacity,
		FlightSpillDir:    *flightSpillDir,
		FlightCPUProfile:  *flightCPU,
		FlightInterval:    *flightInterval,
		Continuous:        *continuous,
	})
	go apiSrv.Flight().Run(ctx)
	mux := http.NewServeMux()
	mux.Handle("/", apiSrv)
	// The profiler is mounted on the outer mux so profiler traffic skips
	// the API middleware (profiles can stream for seconds and would skew
	// the latency histogram); the API mounts the rest of the debug surface.
	httpapi.Debug{Pprof: *pprofOn}.Mount(mux)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		// Slow-client protection: a request that cannot deliver its body or
		// drain its response in these windows releases its connection
		// instead of pinning a worker slot forever. The localization work
		// itself is bounded separately by -request-timeout.
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
	}

	fmt.Fprintf(w, "listening on %s\n", ln.Addr())
	log.Info("listening", "addr", ln.Addr().String(), "pprof", *pprofOn)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		log.Info("shutting down", "timeout", *shutdownTimeout)
		// Flip /readyz first so load balancers stop routing here while
		// in-flight requests drain.
		apiSrv.SetDraining(true)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		log.Info("stopped")
		return nil
	}
}
