package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/anomaly"
	"repro/internal/evalmetrics"
	"repro/internal/kpi"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/rapminer"
	"repro/internal/rapminer/explain"
)

// k is the number of patterns every workload asks for.
const k = 3

// References are computed in-process at set-up with the server's method, k
// and label rule, and every reply of a run is compared with them: patterns
// exactly, scores within scoreTolerance.

// decodeLabeled decodes a one-shot body the way the localize handler does:
// a snapshot that arrives without labels is labeled with the default
// detector.
func decodeLabeled(body []byte) (*kpi.Snapshot, error) {
	snap, err := kpi.ReadJSON(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if snap.NumAnomalous() == 0 {
		anomaly.Label(snap, anomaly.DefaultRelativeDeviation())
	}
	return snap, nil
}

// oneshotReferences localizes every body in-process. It returns the
// expected replies and RC@3 against the injected RAPs.
func oneshotReferences(in *inputs) ([][]pattern, float64, error) {
	miner, err := rapminer.New(rapminer.DefaultConfig())
	if err != nil {
		return nil, 0, err
	}
	rc, err := evalmetrics.NewRCAtK(k)
	if err != nil {
		return nil, 0, err
	}
	refs := make([][]pattern, len(in.cases))
	for i, c := range in.cases {
		snap, err := decodeLabeled(c.body)
		if err != nil {
			return nil, 0, fmt.Errorf("case %d: %w", i, err)
		}
		res, err := miner.LocalizeContext(context.Background(), snap, k)
		if err != nil {
			return nil, 0, fmt.Errorf("case %d: %w", i, err)
		}
		refs[i] = render(snap.Schema, res.Patterns)
		rc.Add(res.TopK(k), c.c.RAPs)
	}
	return refs, rc.Value(), nil
}

// newTickRunner builds the continuous runner exactly as the server's
// continuous API does, on a private registry and explain store.
func newTickRunner() (*pipeline.ContinuousRunner, error) {
	miner, err := rapminer.New(rapminer.DefaultConfig())
	if err != nil {
		return nil, err
	}
	cfg := pipeline.DefaultConfig(anomaly.DefaultRelativeDeviation(), miner)
	cfg.AlarmThreshold = 0.01
	cfg.Registry = obs.NewRegistry()
	cfg.Runs = explain.NewStore(16)
	return pipeline.NewContinuous(cfg, 60)
}

// tickRef is the expected reply to one tick.
type tickRef struct {
	event  string
	scopes []pattern
	combos []kpi.Combination
}

// tickRefs holds the expected reply per tick number (1-based) for the
// cycled tick stream.
type tickRefs struct {
	period int
	refs   []tickRef // refs[t] for t in [1, 2*period]
}

// at returns tick t's reference. Once a full cycle has been applied, the
// world is a function of the tick's phase alone: every leaf holds the value
// of the last tick that touched it, and each phase touches the same leaves
// with the same values. So tick t > 2*period answers like the tick one or
// more periods earlier in (period, 2*period].
func (r *tickRefs) at(t int) tickRef {
	if t > 2*r.period {
		t = r.period + (t-r.period-1)%r.period + 1
	}
	return r.refs[t]
}

// tickReferences replays the baseline and three cycles of ticks through an
// in-process runner, and checks that the third cycle repeats the second,
// which is what lets at() map every later tick onto the second.
func tickReferences(in *inputs) (*tickRefs, float64, error) {
	runner, err := newTickRunner()
	if err != nil {
		return nil, 0, err
	}
	snap, err := kpi.ReadJSON(bytes.NewReader(in.baseline))
	if err != nil {
		return nil, 0, err
	}
	ctx := context.Background()
	if _, err := runner.ObserveSnapshot(ctx, time.Now(), snap); err != nil {
		return nil, 0, err
	}
	period := len(in.ticks)
	all := make([]tickRef, 3*period+1)
	for t := 1; t <= 3*period; t++ {
		d, err := kpi.ReadDeltaJSON(bytes.NewReader(in.ticks[(t-1)%period]), snap.Schema)
		if err != nil {
			return nil, 0, fmt.Errorf("tick %d: %w", t, err)
		}
		ev, _, err := runner.ObserveDelta(ctx, time.Now(), d)
		if err != nil {
			return nil, 0, fmt.Errorf("tick %d: %w", t, err)
		}
		all[t] = tickRef{event: ev.Kind.String()}
		if ev.Incident != nil {
			all[t].scopes = render(snap.Schema, ev.Incident.Scopes)
			for _, p := range ev.Incident.Scopes {
				all[t].combos = append(all[t].combos, p.Combo)
			}
		}
	}
	for t := period + 1; t <= 2*period; t++ {
		a, b := all[t], all[t+period]
		if a.event != b.event || samePatterns(a.scopes, b.scopes) != nil {
			return nil, 0, fmt.Errorf("tick stream does not repeat: tick %d answers %s %v, tick %d answers %s %v",
				t, a.event, a.scopes, t+period, b.event, b.scopes)
		}
	}
	rc, err := evalmetrics.NewRCAtK(k)
	if err != nil {
		return nil, 0, err
	}
	for t := period + 1; t <= 2*period; t++ {
		if in.tick.Failing(t) {
			rc.Add(all[t].combos, in.tickRAPs)
		}
	}
	return &tickRefs{period: period, refs: all[:2*period+1]}, rc.Value(), nil
}
