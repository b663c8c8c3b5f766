// Command monitor runs the Fig. 1 IT-operations loop against the simulated
// ISP CDN: it ticks through simulated minutes, raises a debounced aggregate
// alarm, localizes the root anomaly patterns while the alarm is active and
// prints the incident lifecycle. A failure from the CDN failure catalog is
// injected partway through the window.
//
// Usage:
//
//	monitor [-seed 7] [-minutes 25] [-failure-at 8] [-severity 0.6]
//	        [-kind site-outage] [-interval 0s] [-metrics-addr ""]
//	        [-pprof] [-log-level warn]
//	        [-flight-rules ""] [-flight-cooldown 2m] [-flight-spill-dir ""]
//
// With -metrics-addr set (e.g. :9090), the run exposes its live pipeline
// and miner metrics over HTTP — GET /metrics (Prometheus text format),
// GET /debug/spans (recent trace spans),
// GET /debug/runs[/{id}] (per-run explain reports), GET /debug/slo
// (uptime/saturation; endpoint windows stay empty since the monitor serves
// no API traffic), the flight recorder under /debug/flight, and — with
// -pprof — the Go profiler under /debug/pprof/ — so a long monitoring
// session can be scraped, profiled and its localizations explained
// (`rapmctl explain -addr :9090`) like the serve binary. Every localizing
// tick runs under its own generated trace ID, grouping its spans and
// keying its explain report.
//
// The flight recorder evaluates -flight-rules (only gc-pause fires without
// API traffic) and always answers POST /debug/flight/capture, bundling
// pprof profiles, a metrics snapshot, recent spans and recent explain
// reports for a run that misbehaves mid-simulation.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/anomaly"
	"repro/internal/cdn"
	"repro/internal/flight"
	"repro/internal/httpapi"
	"repro/internal/kpi"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rapminer"
	"repro/internal/rapminer/explain"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "monitor:", err)
		os.Exit(1)
	}
}

// failingSource wraps the simulator and applies the failure from a tick
// onward.
type failingSource struct {
	sim     *cdn.Simulator
	failure cdn.Failure
	from    time.Time
}

func (f *failingSource) Schema() *kpi.Schema { return f.sim.Schema() }

func (f *failingSource) SnapshotAt(ts time.Time) (*kpi.Snapshot, error) {
	snap, err := f.sim.SnapshotAt(ts)
	if err != nil {
		return nil, err
	}
	if !ts.Before(f.from) {
		if err := cdn.ApplyFailures(snap, []cdn.Failure{f.failure}); err != nil {
			return nil, err
		}
	}
	return snap, nil
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("monitor", flag.ContinueOnError)
	var (
		seed        = fs.Int64("seed", 7, "simulation seed")
		minutes     = fs.Int("minutes", 25, "simulated minutes to monitor")
		failureAt   = fs.Int("failure-at", 8, "minute at which the failure starts")
		severity    = fs.Float64("severity", 0.6, "fraction of traffic lost inside the failure scope")
		kindName    = fs.String("kind", "site-outage", "failure kind: node-outage, site-outage, regional-site-failure, access-degradation, client-bug")
		interval    = fs.Duration("interval", 0, "real time per simulated minute (0 = as fast as possible)")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /debug/spans, /debug/runs, /debug/slo and /debug/flight on this address (empty = off)")
		pprofOn     = fs.Bool("pprof", false, "also mount the Go profiler under /debug/pprof/ on -metrics-addr")
		logLevel    = fs.String("log-level", "warn", "log level: debug, info, warn, error")
		flightRules = fs.String("flight-rules", "", "flight-recorder triggers as kind=threshold,... (without API traffic only gc-pause fires); empty = manual captures only")
		flightCool  = fs.Duration("flight-cooldown", flight.DefaultCooldown, "minimum spacing between automatic captures per rule")
		flightSpill = fs.String("flight-spill-dir", "", "also write every diagnostic bundle to this directory as <id>.tar.gz")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rules, err := flight.ParseRules(*flightRules)
	if err != nil {
		return err
	}
	// The incident stream goes to w; structured logs (pipeline component
	// logger, spans at debug) go to stderr at the chosen level.
	level, err := obs.ParseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	obs.ConfigureLogging(os.Stderr, level, false)
	if *minutes < 1 || *failureAt < 0 || *failureAt >= *minutes {
		return fmt.Errorf("need 0 <= failure-at < minutes (got %d, %d)", *failureAt, *minutes)
	}
	kind, err := parseKind(*kindName)
	if err != nil {
		return err
	}

	sim, err := cdn.NewSimulator(cdn.DefaultConfig(*seed))
	if err != nil {
		return err
	}
	failure, err := sim.DrawFailure(rand.New(rand.NewSource(*seed)), kind)
	if err != nil {
		return err
	}
	failure.Severity = *severity

	start := time.Date(2026, 2, 18, 20, 0, 0, 0, time.UTC)
	src := &failingSource{
		sim:     sim,
		failure: failure,
		from:    start.Add(time.Duration(*failureAt) * time.Minute),
	}

	miner, err := rapminer.New(rapminer.DefaultConfig())
	if err != nil {
		return err
	}
	cfg := pipeline.DefaultConfig(anomaly.DefaultRelativeDeviation(), miner)
	cfg.AlarmThreshold = 0.005 // a single scope is a few percent of traffic
	// The run prints each tick's event; it reads no tick-stats window.
	world, err := pipeline.NewContinuous(cfg, 1)
	if err != nil {
		return err
	}

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer ln.Close()
		// Sample Go runtime health alongside the pipeline metrics for as
		// long as the run lasts.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		obs.StartRuntimeCollector(ctx, nil, 0)
		obs.RegisterBuildInfo(nil)
		// The monitor has no request exemplars to chase, so its bundles
		// carry the recent explain reports directly.
		recorder := flight.New(flight.Config{
			Rules:    rules,
			Cooldown: *flightCool,
			SpillDir: *flightSpill,
			Sources: append(flight.TelemetrySources(obs.Default()), flight.Source{
				Name: "runs.json",
				Fetch: func(context.Context) ([]flight.Artifact, error) {
					return flight.JSONArtifact("runs.json", explain.Default().Recent())
				},
			}),
		})
		go recorder.Run(ctx)
		mux := http.NewServeMux()
		httpapi.Debug{Registry: obs.Default(), Runs: explain.Default(), Flight: recorder, Pprof: *pprofOn}.Mount(mux)
		go func() { _ = http.Serve(ln, mux) }()
		fmt.Fprintf(w, "metrics on http://%s/metrics\n", ln.Addr())
	}

	fmt.Fprintf(w, "monitoring simulated CDN from %s (%d minutes)\n", start.Format("15:04"), *minutes)
	fmt.Fprintf(w, "scheduled failure at minute %d: %s\n\n", *failureAt, failure.Format(sim.Schema()))

	runner, err := pipeline.StartRunner(world, src, start, time.Minute, *interval, *minutes)
	if err != nil {
		return err
	}
	defer runner.Stop()

	for ev := range runner.Events() {
		switch ev.Kind {
		case pipeline.EventTick:
			fmt.Fprintf(w, "%s  dev %5.2f%%  ok\n", ev.Time.Format("15:04"), 100*ev.Deviation)
		case pipeline.EventArming:
			fmt.Fprintf(w, "%s  dev %5.2f%%  alarm arming\n", ev.Time.Format("15:04"), 100*ev.Deviation)
		case pipeline.EventOpened:
			fmt.Fprintf(w, "%s  dev %5.2f%%  INCIDENT #%d OPENED\n", ev.Time.Format("15:04"), 100*ev.Deviation, ev.Incident.ID)
			printScopes(w, sim.Schema(), ev)
		case pipeline.EventUpdated:
			fmt.Fprintf(w, "%s  dev %5.2f%%  incident #%d scope updated\n", ev.Time.Format("15:04"), 100*ev.Deviation, ev.Incident.ID)
			printScopes(w, sim.Schema(), ev)
		case pipeline.EventOngoing:
			fmt.Fprintf(w, "%s  dev %5.2f%%  incident #%d ongoing\n", ev.Time.Format("15:04"), 100*ev.Deviation, ev.Incident.ID)
		case pipeline.EventResolved:
			fmt.Fprintf(w, "%s  dev %5.2f%%  incident #%d resolved after %d scope updates\n",
				ev.Time.Format("15:04"), 100*ev.Deviation, ev.Incident.ID, ev.Incident.Updates)
		}
	}
	return runner.Err()
}

func printScopes(w io.Writer, schema *kpi.Schema, ev pipeline.Event) {
	for _, p := range ev.Incident.Scopes {
		fmt.Fprintf(w, "        -> %s (score %.3f)\n", p.Combo.Format(schema), p.Score)
	}
}

func parseKind(name string) (cdn.FailureKind, error) {
	kinds := []cdn.FailureKind{
		cdn.NodeOutage, cdn.SiteOutage, cdn.RegionalSiteFailure,
		cdn.AccessDegradation, cdn.ClientBug,
	}
	for _, k := range kinds {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown failure kind %q", name)
}
