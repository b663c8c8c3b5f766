package rapminer

import (
	"context"
	"sync"

	"repro/internal/kpi"
	"repro/internal/localize"
	"repro/internal/obs"
)

// Metric names exported by PublishDiagnostics. The gauges carry the most
// recent run's search statistics (the paper's Table IV/VI pruning numbers
// as live values); the counters accumulate across runs so rates and the
// early-stop ratio survive scraping.
const (
	MetricCuboidsTotal        = "rapminer_cuboids_total"
	MetricCuboidsSearchable   = "rapminer_cuboids_searchable"
	MetricCuboidsVisited      = "rapminer_cuboids_visited"
	MetricCombinationsScanned = "rapminer_combinations_scanned_total"
	MetricCandidates          = "rapminer_candidates"
	MetricAttributesDeleted   = "rapminer_attributes_deleted"
	MetricRuns                = "rapminer_runs_total"
	MetricEarlyStops          = "rapminer_early_stops_total"
	MetricEarlyStopRatio      = "rapminer_early_stop_ratio"
	MetricRunsDegraded        = "rapminer_runs_degraded_total"
	// Layer-scan metrics are observed live by the search engine itself
	// (they time the passes over the leaf store), not via
	// PublishDiagnostics: wall-clock timings are nondeterministic and must
	// stay out of Diagnostics, whose contents are bit-identical across
	// worker counts.
	MetricLayerScanSeconds = "rapminer_layer_scan_seconds"
	MetricLayerScanPasses  = "rapminer_layer_scan_passes_total"
	// Roll-up telemetry: layers answered entirely from the run's
	// materialized base cuboid versus layers with cuboids that needed leaf
	// scans (sparse base, wide attributes, or an aborted base pass).
	MetricRollupLayers   = "rapminer_rollup_layers_total"
	MetricRollupFallback = "rapminer_rollup_fallback_total"
)

// minerMetrics is the set of instruments PublishDiagnostics writes, bound
// to one registry.
type minerMetrics struct {
	cuboidsTotal, cuboidsSearchable, cuboidsVisited *obs.Gauge
	candidates, attributesDeleted, earlyStopRatio   *obs.Gauge
	combinationsScanned, runs, earlyStops           *obs.Counter
	runsDegraded                                    *obs.Counter
}

// minerInstruments acquires (registering on first use) every family, so
// all series expose at zero from the moment of registration.
func minerInstruments(reg *obs.Registry) minerMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return minerMetrics{
		cuboidsTotal: reg.Gauge(MetricCuboidsTotal,
			"Cuboids in the full lattice (2^n - 1) for the last run's schema."),
		cuboidsSearchable: reg.Gauge(MetricCuboidsSearchable,
			"Cuboids remaining after CP-based attribute deletion in the last run."),
		cuboidsVisited: reg.Gauge(MetricCuboidsVisited,
			"Cuboids actually scanned before early stop in the last run."),
		candidates: reg.Gauge(MetricCandidates,
			"RAP candidates found in the last run before top-k truncation."),
		attributesDeleted: reg.Gauge(MetricAttributesDeleted,
			"Attributes deleted by classification-power pruning in the last run."),
		earlyStopRatio: reg.Gauge(MetricEarlyStopRatio,
			"Fraction of published runs that early-stopped."),
		combinationsScanned: reg.Counter(MetricCombinationsScanned,
			"Group-by rows inspected across all localization runs."),
		runs: reg.Counter(MetricRuns, "Localization runs published."),
		earlyStops: reg.Counter(MetricEarlyStops,
			"Runs ended early by candidate coverage (Criteria 3 early stop)."),
		runsDegraded: reg.Counter(MetricRunsDegraded,
			"Runs cut off by cancellation, deadline, or budget, returning best-so-far partial results."),
	}
}

// RegisterMetrics pre-registers the miner's metric families on reg (nil
// means the default registry) so they expose at zero before the first run.
func RegisterMetrics(reg *obs.Registry) {
	minerInstruments(reg)
	scanInstrumentsOn(reg)
}

// layerScanBuckets resolves leaf-pass timings: the passes are
// microsecond-to-millisecond on realistic snapshots, well under the default
// request-latency buckets.
var layerScanBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1,
}

// scanMetrics are the live layer-scan instruments the search engine writes
// during the run (unlike minerMetrics, which publish a finished run's
// Diagnostics after the fact).
type scanMetrics struct {
	seconds        *obs.Histogram
	passes         *obs.Counter
	rollupLayers   *obs.Counter
	rollupFallback *obs.Counter
}

// scanInstrumentsOn acquires the layer-scan families on reg (nil means the
// default registry).
func scanInstrumentsOn(reg *obs.Registry) scanMetrics {
	if reg == nil {
		reg = obs.Default()
	}
	return scanMetrics{
		seconds: reg.Histogram(MetricLayerScanSeconds,
			"Wall-clock seconds per pass over the leaf store (the roll-up base pass or one cuboid's scan).",
			layerScanBuckets),
		passes: reg.Counter(MetricLayerScanPasses,
			"Completed passes over the leaf store across all runs (roll-up base passes plus per-cuboid scans)."),
		rollupLayers: reg.Counter(MetricRollupLayers,
			"BFS layers served entirely by roll-up over the run's base cuboid (zero leaf reads)."),
		rollupFallback: reg.Counter(MetricRollupFallback,
			"BFS layers with cuboids the roll-up could not serve, counted by leaf scans (sparse base, wide attributes, or an aborted base pass)."),
	}
}

var (
	scanMetricsOnce sync.Once
	scanMetricsDef  scanMetrics
)

// layerScanInstruments returns the default registry's layer-scan
// instruments, resolved once — the search engine is on the hot path and must
// not pay a registry lookup per layer.
func layerScanInstruments() scanMetrics {
	scanMetricsOnce.Do(func() { scanMetricsDef = scanInstrumentsOn(nil) })
	return scanMetricsDef
}

// PublishDiagnostics exports one run's Diagnostics into reg (nil means the
// default registry). Callers holding a Diagnostics — the HTTP API, the
// pipeline, batch experiments — call this once per localization run.
func PublishDiagnostics(reg *obs.Registry, d Diagnostics) {
	mx := minerInstruments(reg)
	mx.cuboidsTotal.Set(float64(d.CuboidsTotal))
	mx.cuboidsSearchable.Set(float64(d.CuboidsSearchable))
	mx.cuboidsVisited.Set(float64(d.CuboidsVisited))
	mx.candidates.Set(float64(d.Candidates))
	mx.attributesDeleted.Set(float64(len(d.DeletedAttributes())))
	mx.combinationsScanned.Add(float64(d.CombinationsScanned))
	mx.runs.Inc()
	if d.EarlyStopped {
		mx.earlyStops.Inc()
	}
	if d.Degraded {
		mx.runsDegraded.Inc()
	}
	if r := mx.runs.Value(); r > 0 {
		mx.earlyStopRatio.Set(mx.earlyStops.Value() / r)
	}
}

// TracedLocalizer is a localizer that reports per-run Diagnostics and
// whose run joins the caller's trace: the context's trace ID groups the
// run's stage spans and keys its explain report. Callers holding a plain
// localize.Localizer type-assert to it to publish search telemetry without
// naming the concrete miner; the HTTP API and the pipeline do so, so every
// localization is individually traceable after the fact.
type TracedLocalizer interface {
	localize.Localizer
	LocalizeWithDiagnosticsContext(ctx context.Context, snapshot *kpi.Snapshot, k int) (localize.Result, Diagnostics, error)
}

var _ TracedLocalizer = (*Miner)(nil)
