package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/anomaly"
	"repro/internal/gendata"
	"repro/internal/kpi"
	"repro/internal/obs"
	"repro/internal/rapminer"
)

// tickDelta decodes tick's delta of the stream world from its wire form,
// as the continuous endpoint receives it.
func tickDelta(tb testing.TB, world gendata.StreamSpec, ticks gendata.TickSpec, tick int) kpi.Delta {
	tb.Helper()
	schema, err := world.Schema()
	if err != nil {
		tb.Fatal(err)
	}
	var body bytes.Buffer
	if err := world.StreamTickJSON(&body, ticks, tick); err != nil {
		tb.Fatal(err)
	}
	d, err := kpi.ReadDeltaJSON(&body, schema)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestContinuousMatchesFresh drives a gendata tick stream with churn —
// leaves removed and re-added on top of each tick's updates — through a
// ContinuousRunner, and on every tick compares its event with a plain
// Monitor fed a from-scratch snapshot of the runner's post-delta leaves,
// labeled in full. Kind, deviation bits, scopes and score bits must agree,
// with the runner's miner at 1, 2, 4 and 8 workers and the reference's at
// one.
func TestContinuousMatchesFresh(t *testing.T) {
	world := gendata.StreamSpec{
		Attributes: []gendata.StreamAttr{
			{Name: "region", Cardinality: 12}, {Name: "isp", Cardinality: 8},
			{Name: "proto", Cardinality: 5}, {Name: "tier", Cardinality: 4},
		},
		Seed: 7, NumRAPs: 2, RAPDim: 2, Workers: 1,
	}
	ticks := gendata.TickSpec{TouchFraction: 0.1, FailEvery: 8, FailFor: 3}
	const nTicks = 24
	deltas := make([]kpi.Delta, nTicks)
	for i := range deltas {
		deltas[i] = tickDelta(t, world, ticks, i+1)
	}
	withWorkers := func(n int) *rapminer.Miner {
		cfg := rapminer.DefaultConfig()
		cfg.Workers = n
		return rapminer.MustNew(cfg)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			base, err := world.Background().StreamSnapshot()
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig(anomaly.DefaultRelativeDeviation(), withWorkers(workers))
			cfg.AlarmThreshold = 0.05
			cfg.Registry = obs.NewRegistry()
			r, err := NewContinuous(cfg, 8)
			if err != nil {
				t.Fatal(err)
			}
			refCfg := cfg
			refCfg.Localizer = withWorkers(1)
			refCfg.Registry = obs.NewRegistry()
			ref, err := New(refCfg)
			if err != nil {
				t.Fatal(err)
			}

			ctx := context.Background()
			ev, err := r.ObserveSnapshot(ctx, t0, base)
			if err != nil {
				t.Fatal(err)
			}
			compareFresh(t, 0, ev, ref, t0, r.snap)

			churn := newChurner(base)
			kinds := map[EventKind]int{}
			removed, added := 0, 0
			for i, d := range deltas {
				d = churn.apply(d)
				removed += len(d.Removes)
				added += len(d.Adds)
				ts := t0.Add(time.Duration(i+1) * time.Minute)
				ev, _, err := r.ObserveDelta(ctx, ts, d)
				if err != nil {
					t.Fatalf("tick %d: %v", i+1, err)
				}
				compareFresh(t, i+1, ev, ref, ts, r.snap)
				kinds[ev.Kind]++
			}
			if kinds[EventOpened] == 0 || kinds[EventResolved] == 0 || removed == 0 || added == 0 {
				t.Fatalf("stream too tame: events %v, %d removes, %d adds", kinds, removed, added)
			}
		})
	}
}

// compareFresh processes a from-scratch, fully labeled copy of the runner's
// snapshot through the reference monitor and compares the two events.
func compareFresh(t *testing.T, tick int, got Event, ref *Monitor, ts time.Time, live *kpi.Snapshot) {
	t.Helper()
	leaves := live.Clone().Leaves
	for i := range leaves {
		leaves[i].Anomalous = false
	}
	fresh, err := kpi.NewSnapshot(live.Schema, leaves)
	if err != nil {
		t.Fatalf("tick %d: %v", tick, err)
	}
	anomaly.Label(fresh, ref.cfg.Detector)
	want, err := ref.Process(ts, fresh)
	if err != nil {
		t.Fatalf("tick %d: reference: %v", tick, err)
	}
	if got.Kind != want.Kind || math.Float64bits(got.Deviation) != math.Float64bits(want.Deviation) {
		t.Fatalf("tick %d: continuous %v (dev %v), fresh %v (dev %v)",
			tick, got.Kind, got.Deviation, want.Kind, want.Deviation)
	}
	if (got.Incident == nil) != (want.Incident == nil) {
		t.Fatalf("tick %d: incident presence diverges", tick)
	}
	if got.Incident == nil {
		return
	}
	gs, ws := got.Incident.Scopes, want.Incident.Scopes
	if len(gs) != len(ws) {
		t.Fatalf("tick %d: scopes %v, fresh %v", tick, gs, ws)
	}
	for j := range ws {
		if !gs[j].Combo.Equal(ws[j].Combo) || math.Float64bits(gs[j].Score) != math.Float64bits(ws[j].Score) {
			t.Fatalf("tick %d: scope %d is %v (%v), fresh %v (%v)",
				tick, j, gs[j].Combo, gs[j].Score, ws[j].Combo, ws[j].Score)
		}
	}
}

// churner adds leaf churn to update-only tick deltas: each tick removes a
// few present leaves the tick does not update, and re-adds some of the
// leaves earlier ticks removed, with their baseline values.
type churner struct {
	r       *rand.Rand
	baseVal map[string]kpi.Leaf
	present []kpi.Combination
	absent  []kpi.Combination
}

func newChurner(base *kpi.Snapshot) *churner {
	c := &churner{r: rand.New(rand.NewSource(11)), baseVal: make(map[string]kpi.Leaf, base.Len())}
	for _, l := range base.Leaves {
		c.baseVal[l.Combo.Key()] = l
		c.present = append(c.present, l.Combo.Clone())
	}
	return c
}

// apply returns d with updates of absent leaves dropped and churn added.
func (c *churner) apply(d kpi.Delta) kpi.Delta {
	gone := make(map[string]bool, len(c.absent))
	for _, combo := range c.absent {
		gone[combo.Key()] = true
	}
	updated := make(map[string]bool, len(d.Updates))
	var out kpi.Delta
	for _, u := range d.Updates {
		if !gone[u.Combo.Key()] {
			out.Updates = append(out.Updates, u)
			updated[u.Combo.Key()] = true
		}
	}
	// Re-add up to two absent leaves, oldest first.
	for n := min(2, len(c.absent)); n > 0; n-- {
		combo := c.absent[0]
		c.absent = c.absent[1:]
		l := c.baseVal[combo.Key()]
		out.Adds = append(out.Adds, kpi.Leaf{Combo: combo, Actual: l.Actual, Forecast: l.Forecast})
		c.present = append(c.present, combo)
	}
	// Remove three present leaves the tick neither updates nor re-adds.
	for n := 3; n > 0; {
		i := c.r.Intn(len(c.present))
		combo := c.present[i]
		if updated[combo.Key()] || gone[combo.Key()] {
			continue
		}
		updated[combo.Key()] = true
		out.Removes = append(out.Removes, combo)
		c.present[i] = c.present[len(c.present)-1]
		c.present = c.present[:len(c.present)-1]
		c.absent = append(c.absent, combo)
		n--
	}
	return out
}
