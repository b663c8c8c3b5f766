package main

import "repro/internal/rapminer"

// metricDef is one reported metric. The table below is what the benchmark
// prints and what BENCHMARK.json lists; bench/README.md maps each layer
// metric to the end-to-end metric and workload it should move.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported for every
// workload by a run with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"max_ops", "ops/s", "higher"},
	{"fail_share", "fraction", "lower"},
	{"rc_at_3", "fraction", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced run's metrics, reported for every workload; a
// layer a workload does not exercise reads 0.
var perLayer = func() []metricDef {
	ms := func(name string) metricDef { return metricDef{name, "ms", "lower"} }
	defs := []metricDef{
		ms("kpi.read_json.ms"),
		ms("kpi.read_delta_json.ms"),
		ms("kpi.columns.ms"),
		{"kpi.touched_leaves", "count", "lower"},
		{"kpi.patched_share", "fraction", "higher"},
		ms("anomaly.label.ms"),
		{"anomaly.flipped_leaves", "count", "lower"},
		ms("pipeline.observe_delta.ms"),
		ms("pipeline.apply.ms"),
		ms("pipeline.detect.ms"),
		ms("pipeline.localize.ms"),
		{"pipeline.localize_share", "fraction", "lower"},
		{"pipeline.resolved", "count", "higher"},
	}
	for _, stage := range []string{"attribute_deletion", "search"} {
		defs = append(defs, ms("rapminer."+stage+".ms"))
		for _, fam := range []string{"cdn", "sparse", "deep"} {
			defs = append(defs, ms("rapminer."+stage+"."+fam+".ms"))
		}
	}
	for _, c := range []string{"attrs_kept", "cuboids_visited", "combinations_scanned",
		"combinations_pruned", "candidates", "early_stop_layer", "scan_passes", "fused_cuboids"} {
		defs = append(defs, metricDef{"rapminer." + c, "count", "lower"})
	}
	defs = append(defs, metricDef{"rapminer.rollup_share", "fraction", "higher"})
	for _, b := range []string{"riskloc", "adtributor", "squeeze", "idice", "fpgrowth"} {
		defs = append(defs, ms("baseline."+b+".ms"), ms("baseline."+b+".sparse.ms"), ms("baseline."+b+".deep.ms"))
	}
	return append(defs,
		ms("baseline.hotspot.ms"),
		ms("explain.new.ms"),
		ms("server.cpu_ms_per_op"),
		metricDef{"server.gc_per_kop", "count", "lower"},
		ms("server.handler_ms"),
		ms("client.transport_ms"),
		metricDef{"server.rollup_fallback_per_run", "count", "lower"},
		ms("server.delta_apply_ms"),
		ms("httpapi.residual.ms"),
		ms("client.late_p99_ms"),
		metricDef{"trace.overhead_pct", "%", "lower"},
		ms("machine.kernel_ms"),
	)
}()

// result is one workload run as printed and as stored in results files.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"`
	Traced    bool               `json:"traced"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// ok reports whether the run counts: no failed op.
func (r *result) ok() bool { return r.Failed == 0 }

// fillLatency sets p50_ms, tail_ms and the sample count from samples.
func (r *result) fillLatency(w workload, samples []float64) error {
	p50, err := percentile(samples, 50)
	if err != nil {
		return err
	}
	tail, err := percentile(samples, w.tail)
	if err != nil {
		return err
	}
	r.EndToEnd["p50_ms"], r.EndToEnd["tail_ms"], r.Samples = p50, tail, len(samples)
	return nil
}

// serverMetrics fills a server workload's end-to-end metrics and the
// layer metrics that come from outside the server: process accounting,
// /metrics deltas and client timings.
func serverMetrics(w workload, run *serverRun, rc float64, r *result) error {
	ops := run.open.ops + run.closed.ops
	r.Attempted = ops
	r.Failed = run.open.failed + run.closed.failed
	if err := r.fillLatency(w, run.open.latency); err != nil {
		return err
	}
	e := r.EndToEnd
	e["setup_s"] = median(run.setup)
	e["max_ops"] = float64(run.closed.ops) / run.closed.elapsed.Seconds()
	e["fail_share"] = float64(r.Failed) / float64(ops)
	e["rc_at_3"] = rc
	e["peak_rss_mb"] = median(run.hwmMB)

	l := r.PerLayer
	l["server.cpu_ms_per_op"] = ms(run.cpu) / float64(ops)
	l["server.gc_per_kop"] = float64(run.gcs) * 1000 / float64(ops)
	route := `{route="POST /v1/localize"}`
	if w.kind == ticks {
		route = `{route="POST /v1/observe/delta"}`
	}
	if n := run.openDeltas["http_request_duration_seconds_count"+route]; n > 0 {
		l["server.handler_ms"] = run.openDeltas["http_request_duration_seconds_sum"+route] * 1000 / n
	}
	l["client.transport_ms"] = mean(run.open.service) - l["server.handler_ms"]
	if runs := run.deltas[rapminer.MetricRuns]; runs > 0 {
		l["server.rollup_fallback_per_run"] = run.deltas[rapminer.MetricRollupFallback] / runs
	}
	if n := run.deltas["pipeline_delta_apply_seconds_count"]; n > 0 {
		l["server.delta_apply_ms"] = run.deltas["pipeline_delta_apply_seconds_sum"] * 1000 / n
	}
	l["client.late_p99_ms"] = quantile(run.open.late, 99)
	l["machine.kernel_ms"] = median(run.speed.all)
	return nil
}

// engineMetrics fills an engine workload's end-to-end metrics.
func engineMetrics(w workload, run *engineRun, r *result) error {
	r.Attempted, r.Failed = run.loop.ops, run.loop.failed
	if err := r.fillLatency(w, run.loop.latency); err != nil {
		return err
	}
	e := r.EndToEnd
	e["setup_s"] = median(run.setup)
	e["max_ops"] = 1000 / mean(run.loop.latency)
	e["fail_share"] = float64(r.Failed) / float64(r.Attempted)
	e["rc_at_3"] = run.rc
	e["peak_rss_mb"] = median(run.hwmMB)
	for name, v := range run.layer {
		r.PerLayer[name] = v
	}
	r.PerLayer["machine.kernel_ms"] = median(run.kernel)
	return nil
}

// diagCounts averages the Diagnostics counts of one localization per
// distinct input: they repeat exactly, so they support count claims.
func diagCounts(diags []rapminer.Diagnostics) map[string]float64 {
	out := make(map[string]float64)
	if len(diags) == 0 {
		return out
	}
	var served, visited int
	for _, d := range diags {
		out["rapminer.attrs_kept"] += float64(len(d.KeptAttributes))
		out["rapminer.cuboids_visited"] += float64(d.CuboidsVisited)
		out["rapminer.combinations_scanned"] += float64(d.CombinationsScanned)
		out["rapminer.combinations_pruned"] += float64(d.CombinationsPruned)
		out["rapminer.candidates"] += float64(d.Candidates)
		out["rapminer.early_stop_layer"] += float64(d.EarlyStopLayer)
		for _, l := range d.Layers {
			out["rapminer.scan_passes"] += float64(l.ScanPasses)
			out["rapminer.fused_cuboids"] += float64(l.FusedCuboids)
			served += l.RollupServed
		}
		visited += d.CuboidsVisited
	}
	for name := range out {
		out[name] /= float64(len(diags))
	}
	if visited > 0 {
		out["rapminer.rollup_share"] = float64(served) / float64(visited)
	}
	return out
}
