package pipeline

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/gendata"
	"repro/internal/kpi"
	"repro/internal/leafforecast"
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
	r := newTickRunner(b, tickWorld)
	deltas := tickDeltas(b, tickWorld, tickSpec, tickSpec.FailEvery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := t0.Add(time.Duration(i+1) * time.Minute)
		if _, _, err := r.ObserveDelta(context.Background(), ts, deltas[i%len(deltas)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveDeltaFailing measures a localizing tick on the world of
// the ticks-115k benchmark workload: tickWorld's shape with two RAPs on
// {region, isp, proto} and {isp, proto, tier}. Every tick of the stream
// fails, so once the incident is open each op applies a delta and
// localizes the patched snapshot. The large sub-benchmark first pushes
// 7/16 of the leaves 50% below their forecasts (largeIncident), so the
// search counts a large incident.
func BenchmarkObserveDeltaFailing(b *testing.B) {
	world := tickWorld
	for world.Seed = 1; !rapsOn(world, [][]int{{0, 1, 2}, {1, 2, 3}}); world.Seed++ {
		if world.Seed == 100 {
			b.Fatal("no seed in 1..100 puts the RAPs on {0,1,2} and {1,2,3}")
		}
	}
	// The stream fails every tick, so the cycle of pre-generated deltas
	// is set by how many distinct ticks to replay, not by the spec.
	const ticks = 10
	failing := gendata.TickSpec{TouchFraction: tickSpec.TouchFraction, FailEvery: 1, FailFor: 1}
	for _, large := range []bool{false, true} {
		name := "small"
		if large {
			name = "large"
		}
		b.Run(name, func(b *testing.B) {
			r := newTickRunner(b, world)
			deltas := tickDeltas(b, world, failing, ticks)
			ctx := context.Background()
			if large {
				if _, _, err := r.ObserveDelta(ctx, t0, largeIncident(r.snap)); err != nil {
					b.Fatal(err)
				}
			}
			// Open the incident, so every timed tick localizes.
			ts := t0
			for i := 0; i < 3; i++ {
				ts = ts.Add(time.Minute)
				if _, _, err := r.ObserveDelta(ctx, ts, deltas[i%len(deltas)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts = ts.Add(time.Minute)
				ev, _, err := r.ObserveDelta(ctx, ts, deltas[i%len(deltas)])
				if err != nil {
					b.Fatal(err)
				}
				if ev.Kind != EventOngoing && ev.Kind != EventUpdated {
					b.Fatalf("tick %d: %s, want a localizing tick", i, ev.Kind)
				}
			}
		})
	}
}

// rapsOn reports whether world's RAPs constrain exactly the attribute sets
// attrs, in order.
func rapsOn(world gendata.StreamSpec, attrs [][]int) bool {
	raps := world.RAPs()
	if len(raps) != len(attrs) {
		return false
	}
	for i, rap := range raps {
		if !slices.Equal(rap.Attrs(), attrs[i]) {
			return false
		}
	}
	return true
}

// newTickRunner returns a ContinuousRunner with world's clean baseline
// installed.
func newTickRunner(b *testing.B, world gendata.StreamSpec) *ContinuousRunner {
	b.Helper()
	base, err := world.Background().StreamSnapshot()
	if err != nil {
		b.Fatal(err)
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
	if _, err := r.ObserveSnapshot(context.Background(), t0, base); err != nil {
		b.Fatal(err)
	}
	return r
}

// tickDeltas pre-generates world's deltas for ticks 1 to n under spec.
func tickDeltas(b *testing.B, world gendata.StreamSpec, spec gendata.TickSpec, n int) []kpi.Delta {
	b.Helper()
	deltas := make([]kpi.Delta, n)
	for t := range deltas {
		deltas[t] = tickDelta(b, world, spec, t+1)
	}
	return deltas
}

// largeIncident returns a delta that sets to half its forecast every leaf
// with isp < 10 and proto < 5 or with region < 24 and tier < 6: 7/16 of
// the leaves, under two layer-2 patterns.
func largeIncident(snap *kpi.Snapshot) kpi.Delta {
	var d kpi.Delta
	for _, l := range snap.Leaves {
		c := l.Combo
		if c[1] < 10 && c[2] < 5 || c[0] < 24 && c[3] < 6 {
			d.Updates = append(d.Updates, kpi.LeafUpdate{Combo: c, Actual: l.Forecast / 2, Forecast: l.Forecast})
		}
	}
	return d
}

// BenchmarkObserveActuals measures one actuals-only tick (ObserveActuals)
// on a quiet 50·20·20 = 20,000-leaf world whose tracker already holds a
// full 256-tick window for every leaf: the forecast fill, labeling, the
// monitor and the tracker learning the tick. Each op cycles through eight
// pre-generated ticks of ±1% noise.
func BenchmarkObserveActuals(b *testing.B) {
	var attrs []kpi.Attribute
	for _, a := range []struct {
		name string
		card int
	}{{"region", 50}, {"isp", 20}, {"proto", 20}} {
		attr := kpi.Attribute{Name: a.name}
		for j := 0; j < a.card; j++ {
			attr.Values = append(attr.Values, fmt.Sprintf("%s_%d", a.name, j))
		}
		attrs = append(attrs, attr)
	}
	schema := kpi.MustSchema(attrs...)
	all := kpi.NewCuboidIndexer(schema, kpi.Cuboid{0, 1, 2})
	rng := rand.New(rand.NewSource(9))
	base := make([]float64, schema.NumLeaves())
	for i := range base {
		base[i] = 10 + 90*rng.Float64()
	}
	ticks := make([]*kpi.Snapshot, 8)
	for t := range ticks {
		leaves := make([]kpi.Leaf, len(base))
		for i, v := range base {
			leaves[i] = kpi.Leaf{Combo: all.Combination(i), Actual: v * (0.99 + 0.02*rng.Float64())}
		}
		snap, err := kpi.NewSnapshot(schema, leaves)
		if err != nil {
			b.Fatal(err)
		}
		ticks[t] = snap
	}
	obs.ConfigureLogging(io.Discard, slog.LevelInfo, false)
	cfg := DefaultConfig(anomaly.DefaultRelativeDeviation(), rapminer.MustNew(rapminer.DefaultConfig()))
	cfg.Registry = obs.NewRegistry()
	r, err := NewContinuous(cfg, 60)
	if err != nil {
		b.Fatal(err)
	}
	fcfg := leafforecast.DefaultConfig()
	r.tracker, err = leafforecast.New(schema, fcfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < fcfg.Window; i++ {
		if err := r.tracker.Observe(ticks[i%len(ticks)]); err != nil {
			b.Fatal(err)
		}
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := r.ObserveActuals(ctx, t0.Add(time.Duration(i+1)*time.Minute), ticks[i%len(ticks)])
		if err != nil {
			b.Fatal(err)
		}
		if ev.Kind != EventTick {
			b.Fatalf("tick %d: %s, want a quiet tick", i, ev.Kind)
		}
	}
}
