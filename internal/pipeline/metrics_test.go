package pipeline

import (
	"strings"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/kpi"
	"repro/internal/obs"
	"repro/internal/rapminer"
)

// monitorWithRegistry builds a monitor whose metrics land on a fresh
// registry, reusing the package tests' schema and snapshot helpers.
func monitorWithRegistry(t *testing.T, reg *obs.Registry) *Monitor {
	t.Helper()
	cfg := DefaultConfig(anomaly.DefaultRelativeDeviation(), rapminer.MustNew(rapminer.DefaultConfig()))
	cfg.Registry = reg
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMonitorMetricsLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	m := monitorWithRegistry(t, reg)

	ts := t0
	scope := kpi.Combination{0, kpi.Wildcard}
	step := func(failing bool) {
		t.Helper()
		var snap *kpi.Snapshot
		if failing {
			snap = snapshotWithDrop(t, scope, 0.5)
		} else {
			snap = snapshotWithDrop(t, nil, 0)
		}
		if _, err := process(m, ts, snap); err != nil {
			t.Fatal(err)
		}
		ts = ts.Add(time.Minute)
	}

	// quiet, arm (x2 opens), ongoing, quiet x3 resolves.
	step(false)
	step(true)
	step(true) // opened
	step(true) // ongoing or updated
	step(false)
	step(false)
	step(false) // resolved

	if got := reg.Counter("pipeline_incidents_opened_total", "").Value(); got != 1 {
		t.Errorf("opened = %v, want 1", got)
	}
	if got := reg.Counter("pipeline_incidents_resolved_total", "").Value(); got != 1 {
		t.Errorf("resolved = %v, want 1", got)
	}
	if got := reg.Gauge("pipeline_incidents_open", "").Value(); got != 0 {
		t.Errorf("open gauge = %v, want 0 after resolve", got)
	}
	if got := reg.Counter("pipeline_events_total", "", "kind", "tick").Value(); got != 1 {
		t.Errorf("tick events = %v, want 1", got)
	}
	if got := reg.Counter("pipeline_events_total", "", "kind", "arming").Value(); got != 1 {
		t.Errorf("arming events = %v, want 1", got)
	}
	if got := reg.Counter("pipeline_events_total", "", "kind", "opened").Value(); got != 1 {
		t.Errorf("opened events = %v, want 1", got)
	}

	// The incident lasted 4 simulated minutes (opened at +2, resolved at
	// +6): the duration histogram saw exactly one observation of 240s.
	h := reg.Histogram("pipeline_incident_duration_seconds", "", incidentDurationBuckets)
	if h.Count() != 1 {
		t.Fatalf("duration observations = %d, want 1", h.Count())
	}
	if h.Sum() != 240 {
		t.Errorf("duration sum = %v, want 240", h.Sum())
	}

	// Stage latency histograms ticked once per localization call.
	if got := reg.Histogram("pipeline_stage_seconds", "", nil, "stage", "localize").Count(); got == 0 {
		t.Error("localize stage never observed")
	}
	if got := reg.Histogram("pipeline_stage_seconds", "", nil, "stage", "detect").Count(); got == 0 {
		t.Error("detect stage never observed")
	}
}

func TestRegisterMetricsPreRegistersFamilies(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"pipeline_incidents_opened_total 0",
		"pipeline_incidents_resolved_total 0",
		`pipeline_events_total{kind="resolved"} 0`,
		`pipeline_stage_seconds_count{stage="detect"} 0`,
		"pipeline_incident_duration_seconds_count 0",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("pre-registration missing %q:\n%s", want, sb.String())
		}
	}
}
