package pipeline

import (
	"context"
	"io"
	"log/slog"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/gendata"
	"repro/internal/kpi"
	"repro/internal/obs"
	"repro/internal/rapminer"
)

// tickWorld is the continuous benchmark's world: 48·20·10·12 = 115,200
// leaves, two three-attribute failure patterns, 1% of the leaves
// re-observed per tick and a failure window of 3 ticks in every 10, so the
// monitor arms, opens, localizes and resolves within one cycle.
var (
	tickWorld = gendata.StreamSpec{
		Attributes: []gendata.StreamAttr{
			{Name: "region", Cardinality: 48}, {Name: "isp", Cardinality: 20},
			{Name: "proto", Cardinality: 10}, {Name: "tier", Cardinality: 12},
		},
		Seed: 3, NumRAPs: 2, RAPDim: 3, Workers: 1,
	}
	tickSpec = gendata.TickSpec{TouchFraction: 0.01, FailEvery: 10, FailFor: 3}
)

// BenchmarkObserveDelta measures one continuous tick end to end in process:
// ApplyDelta, LabelDelta, the monitor's root deviation and, on failing
// ticks, localization of the patched snapshot. Each op cycles through one
// failure period of pre-generated deltas, so ns/op is the mean tick.
func BenchmarkObserveDelta(b *testing.B) {
	base, err := tickWorld.Background().StreamSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	deltas := make([]kpi.Delta, tickSpec.FailEvery)
	for t := range deltas {
		deltas[t] = tickDelta(b, tickWorld, tickSpec, t+1)
	}
	// Incident transitions log at info level; keep them out of the
	// benchmark output.
	obs.ConfigureLogging(io.Discard, slog.LevelInfo, false)
	cfg := DefaultConfig(anomaly.DefaultRelativeDeviation(), rapminer.MustNew(rapminer.DefaultConfig()))
	cfg.AlarmThreshold = 0.01
	cfg.Registry = obs.NewRegistry()
	r, err := NewContinuous(cfg, 60)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.ObserveSnapshot(ctx, t0, base); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := t0.Add(time.Duration(i+1) * time.Minute)
		if _, _, err := r.ObserveDelta(ctx, ts, deltas[i%len(deltas)]); err != nil {
			b.Fatal(err)
		}
	}
}
