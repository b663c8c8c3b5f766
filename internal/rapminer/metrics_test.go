package rapminer

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestPublishDiagnostics(t *testing.T) {
	reg := obs.NewRegistry()
	d := Diagnostics{
		CPs: []AttributeCP{
			{Attr: 0, CP: 0.9}, {Attr: 1, CP: 0.0001}, {Attr: 2, CP: 0.0002},
		},
		KeptAttributes:      []int{0},
		CuboidsTotal:        7,
		CuboidsSearchable:   1,
		CuboidsVisited:      1,
		CombinationsScanned: 42,
		Candidates:          1,
		EarlyStopped:        true,
	}
	PublishDiagnostics(reg, d)

	checks := map[string]float64{
		MetricCuboidsTotal:      7,
		MetricCuboidsSearchable: 1,
		MetricCuboidsVisited:    1,
		MetricCandidates:        1,
		MetricAttributesDeleted: 2,
		MetricEarlyStopRatio:    1,
	}
	for name, want := range checks {
		if got := reg.Gauge(name, "").Value(); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := reg.Counter(MetricCombinationsScanned, "").Value(); got != 42 {
		t.Errorf("combinations scanned = %v, want 42", got)
	}

	// A second, non-early-stopped run: gauges track the last run, counters
	// accumulate, the ratio averages.
	d.EarlyStopped = false
	d.CuboidsVisited = 3
	PublishDiagnostics(reg, d)
	if got := reg.Gauge(MetricCuboidsVisited, "").Value(); got != 3 {
		t.Errorf("visited after 2nd run = %v, want 3", got)
	}
	if got := reg.Counter(MetricRuns, "").Value(); got != 2 {
		t.Errorf("runs = %v, want 2", got)
	}
	if got := reg.Gauge(MetricEarlyStopRatio, "").Value(); got != 0.5 {
		t.Errorf("early stop ratio = %v, want 0.5", got)
	}
	if got := reg.Counter(MetricCombinationsScanned, "").Value(); got != 84 {
		t.Errorf("combinations scanned = %v, want 84", got)
	}
}

func TestRegisterMetricsExposesZeroSchema(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, name := range []string{
		MetricCuboidsTotal, MetricCuboidsSearchable, MetricCuboidsVisited,
		MetricCombinationsScanned, MetricCandidates, MetricAttributesDeleted,
		MetricRuns, MetricEarlyStops, MetricEarlyStopRatio,
	} {
		if !strings.Contains(body, name+" 0") {
			t.Errorf("registration did not expose %s at zero:\n%s", name, body)
		}
	}
	// The live layer-scan instruments register too: the counters at zero,
	// the histogram with its bucket series.
	for _, name := range []string{MetricLayerScanPasses, MetricRollupLayers, MetricRollupFallback} {
		if !strings.Contains(body, name+" 0") {
			t.Errorf("registration did not expose %s at zero:\n%s", name, body)
		}
	}
	if !strings.Contains(body, MetricLayerScanSeconds+"_count 0") {
		t.Errorf("registration did not expose %s histogram:\n%s", MetricLayerScanSeconds, body)
	}
	// Registration must not count a run.
	if got := reg.Counter(MetricRuns, "").Value(); got != 0 {
		t.Errorf("RegisterMetrics counted %v runs", got)
	}
}

// TestSearchObservesLayerScanMetrics checks a localization run feeds the
// live layer-scan instruments on the default registry: the pass counter
// advances by the run's leaf passes, the seconds histogram records one
// observation per pass, and every layer entered counts as rolled up or
// fallen back.
func TestSearchObservesLayerScanMetrics(t *testing.T) {
	mx := layerScanInstruments()
	passes0 := mx.passes.Value()
	seconds0 := mx.seconds.Count()
	layers0 := mx.rollupLayers.Value() + mx.rollupFallback.Value()

	snap := fig6Snapshot(t)
	res, diag, err := MustNew(DefaultConfig()).LocalizeWithDiagnosticsContext(context.Background(), snap, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns")
	}
	wantPasses := 0
	for _, l := range diag.Layers {
		wantPasses += l.ScanPasses
	}
	if wantPasses == 0 {
		t.Fatal("run made no leaf pass")
	}
	if got := mx.passes.Value() - passes0; got != float64(wantPasses) {
		t.Errorf("%s advanced by %v, want %d", MetricLayerScanPasses, got, wantPasses)
	}
	if got := mx.seconds.Count() - seconds0; got != uint64(wantPasses) {
		t.Errorf("%s observed %v passes, want %d", MetricLayerScanSeconds, got, wantPasses)
	}
	if got := mx.rollupLayers.Value() + mx.rollupFallback.Value() - layers0; got != float64(len(diag.Layers)) {
		t.Errorf("roll-up layer counters advanced by %v, want %d", got, len(diag.Layers))
	}
}
