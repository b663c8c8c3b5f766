package pipeline_test

import (
	"context"
	"fmt"
	"time"

	"repro/internal/anomaly"
	"repro/internal/kpi"
	"repro/internal/pipeline"
	"repro/internal/rapminer"
)

// Example drives a ContinuousRunner by hand with full snapshots through a
// quiet tick, an incident and its resolution.
func Example() {
	schema := kpi.MustSchema(
		kpi.Attribute{Name: "Location", Values: []string{"L1", "L2"}},
		kpi.Attribute{Name: "Website", Values: []string{"Site1", "Site2"}},
	)
	snapshot := func(drop float64) *kpi.Snapshot {
		scope := kpi.MustParseCombination(schema, "(L1, *)")
		var leaves []kpi.Leaf
		for l := int32(0); l < 2; l++ {
			for w := int32(0); w < 2; w++ {
				combo := kpi.Combination{l, w}
				leaf := kpi.Leaf{Combo: combo, Actual: 100, Forecast: 100}
				if drop > 0 && scope.Matches(combo) {
					leaf.Actual = 100 * (1 - drop)
				}
				leaves = append(leaves, leaf)
			}
		}
		snap, err := kpi.NewSnapshot(schema, leaves)
		if err != nil {
			panic(err)
		}
		return snap
	}

	drops := []float64{0, 0.5, 0.5, 0.5, 0}
	miner, _ := rapminer.New(rapminer.DefaultConfig())
	cfg := pipeline.DefaultConfig(anomaly.DefaultRelativeDeviation(), miner)
	cfg.DebounceTicks = 2
	cfg.ResolveTicks = 1
	runner, _ := pipeline.NewContinuous(cfg, len(drops))

	ts := time.Date(2026, 3, 5, 12, 0, 0, 0, time.UTC)
	for i, drop := range drops {
		ev, err := runner.ObserveSnapshot(context.Background(), ts.Add(time.Duration(i)*time.Minute), snapshot(drop))
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Println(ev.Kind)
	}
	// Output:
	// tick
	// arming
	// opened
	// ongoing
	// resolved
}
