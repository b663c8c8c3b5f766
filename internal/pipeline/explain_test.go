package pipeline

import (
	"context"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/kpi"
	"repro/internal/obs"
	"repro/internal/rapminer"
	"repro/internal/rapminer/explain"
)

// TestPipelineCapturesExplainReports drives an incident open through a
// monitor with its own report store and checks every localizing tick left
// a pipeline-sourced report keyed by a trace ID.
func TestPipelineCapturesExplainReports(t *testing.T) {
	runs := explain.NewStore(8)
	cfg := DefaultConfig(anomaly.DefaultRelativeDeviation(), rapminer.MustNew(rapminer.DefaultConfig()))
	cfg.Runs = runs
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	scope := kpi.MustParseCombination(testSchema(), "(a2, *)")
	failing := func() *kpi.Snapshot { return snapshotWithDrop(t, scope, 0.5) }

	// Two alarming ticks: arming (no localization), then open (localizes).
	if _, err := m.Process(t0, failing()); err != nil {
		t.Fatal(err)
	}
	if runs.Len() != 0 {
		t.Fatalf("arming tick recorded %d reports, want 0", runs.Len())
	}
	if _, err := m.Process(t0.Add(time.Minute), failing()); err != nil {
		t.Fatal(err)
	}
	if runs.Len() != 1 {
		t.Fatalf("opening tick recorded %d reports, want 1", runs.Len())
	}
	rep := runs.Recent()[0]
	if rep.Source != "pipeline" || rep.TraceID == "" {
		t.Errorf("report = source %q, trace %q", rep.Source, rep.TraceID)
	}
	if len(rep.Candidates) == 0 || rep.Candidates[0].Combination[0] != "a2" {
		t.Errorf("report candidates = %+v", rep.Candidates)
	}

	// A caller-supplied trace keys the next report.
	tc := obs.NewTraceContext()
	ctx := obs.ContextWithTrace(context.Background(), tc)
	if _, err := m.ProcessContext(ctx, t0.Add(2*time.Minute), snapshotWithDrop(t, kpi.MustParseCombination(testSchema(), "(a3, *)"), 0.5)); err != nil {
		t.Fatal(err)
	}
	got, ok := runs.Get(tc.TraceID)
	if !ok {
		t.Fatalf("no report under caller trace %s; runs = %+v", tc.TraceID, runs.Recent())
	}
	if got.Source != "pipeline" {
		t.Errorf("caller-traced report source = %q", got.Source)
	}
}

// TestLocalizingTickStageSpans pins the span tree of a localizing tick:
// pipeline.detect and pipeline.localize are siblings under the tick's
// span, so localize is never parented to a detect span that has already
// ended.
func TestLocalizingTickStageSpans(t *testing.T) {
	m, err := New(DefaultConfig(anomaly.DefaultRelativeDeviation(), rapminer.MustNew(rapminer.DefaultConfig())))
	if err != nil {
		t.Fatal(err)
	}
	ctx, tick := obs.StartSpan(context.Background(), "test.tick")
	scope := kpi.MustParseCombination(testSchema(), "(a2, *)")
	for i := 0; i < 2; i++ { // arming, then open (localizes)
		if _, err := m.ProcessContext(ctx, t0.Add(time.Duration(i)*time.Minute), snapshotWithDrop(t, scope, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	tick.End()

	stages := map[string]obs.SpanRecord{}
	for _, sp := range obs.RecentSpans() {
		if sp.TraceID == tick.TraceID() && (sp.Name == "pipeline.detect" || sp.Name == "pipeline.localize") {
			stages[sp.Name] = sp
		}
	}
	detect, ok1 := stages["pipeline.detect"]
	loc, ok2 := stages["pipeline.localize"]
	if !ok1 || !ok2 {
		t.Fatalf("stage spans under the tick's trace = %v", stages)
	}
	if detect.ParentID != loc.ParentID || loc.ParentID != tick.SpanID() {
		t.Errorf("parents: detect %q, localize %q; want both the tick span %q", detect.ParentID, loc.ParentID, tick.SpanID())
	}
	if loc.ParentID == detect.SpanID {
		t.Errorf("pipeline.localize is a child of pipeline.detect")
	}
}
