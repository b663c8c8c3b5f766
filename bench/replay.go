package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/anomaly"
	"repro/internal/kpi"
	"repro/internal/localize"
	"repro/internal/pipeline"
	"repro/internal/rapminer"
	"repro/internal/rapminer/explain"
)

// Traced replays: each runs in-process through the public calls the server
// or the engine op makes, wraps each call in a stage span, checks every
// result against the run's references, and turns the spans into per-layer
// metrics.

// finish summarizes the tracer's spans into layer, writes them to out, and
// returns the summary.
func finish(tr *tracer, workload, out string, layer map[string]float64) (traced, error) {
	spans, err := tr.spans()
	if err != nil {
		return traced{}, err
	}
	sum := tr.summarize(spans)
	for name, v := range sum.stages {
		layer[name] = v
	}
	return sum, writeSpans(out, workload, spans)
}

// oneshotReplay decodes, labels and localizes each body as the localize
// handler does, then builds its explain report.
func oneshotReplay(w workload, in *inputs, refs [][]pattern, out string, layer map[string]float64) (traced, error) {
	miner, err := rapminer.New(rapminer.DefaultConfig())
	if err != nil {
		return traced{}, err
	}
	tr := newTracer(w.traced)
	var diags []rapminer.Diagnostics
	for i := 0; i < w.traced; i++ {
		c := in.cases[i%len(in.cases)]
		ctx, root := tr.op(c.family, false)
		var (
			snap *kpi.Snapshot
			res  localize.Result
			diag rapminer.Diagnostics
		)
		stage(ctx, "kpi.read_json", func(context.Context) { snap, err = kpi.ReadJSON(bytes.NewReader(c.body)) })
		if err != nil {
			return traced{}, err
		}
		stage(ctx, "anomaly.label", func(context.Context) {
			if snap.NumAnomalous() == 0 {
				anomaly.Label(snap, anomaly.DefaultRelativeDeviation())
			}
		})
		stage(ctx, "kpi.columns", func(context.Context) { snap.Columns() })
		start := time.Now()
		stage(ctx, "rapminer.localize", func(ctx context.Context) {
			res, diag, err = miner.LocalizeWithDiagnosticsContext(ctx, snap, k)
		})
		if err != nil {
			return traced{}, err
		}
		stage(ctx, "explain.new", func(context.Context) {
			explain.New(root.TraceID(), "bench", miner.Name(), snap, k, diag, time.Since(start))
		})
		root.End()
		if err := samePatterns(render(snap.Schema, res.Patterns), refs[i%len(in.cases)]); err != nil {
			return traced{}, fmt.Errorf("traced case %d: %w", i%len(in.cases), err)
		}
		if i < len(in.cases) {
			diags = append(diags, diag)
		}
	}
	for name, v := range diagCounts(diags) {
		layer[name] = v
	}
	return finish(tr, w.name, out, layer)
}

// tickReplay installs the baseline in a runner built like the server's and
// observes the ticks in order.
func tickReplay(w workload, in *inputs, refs *tickRefs, out string, layer map[string]float64) (traced, error) {
	runner, err := newTickRunner()
	if err != nil {
		return traced{}, err
	}
	snap, err := kpi.ReadJSON(bytes.NewReader(in.baseline))
	if err != nil {
		return traced{}, err
	}
	if _, err := runner.ObserveSnapshot(context.Background(), time.Now(), snap); err != nil {
		return traced{}, err
	}
	tr := newTracer(w.traced)
	var touched, flipped, apply float64
	var patched, resolved int
	for t := 1; t <= w.traced; t++ {
		ctx, root := tr.op("tick", false)
		var (
			d  kpi.Delta
			ev pipeline.Event
		)
		stage(ctx, "kpi.read_delta_json", func(context.Context) {
			d, err = kpi.ReadDeltaJSON(bytes.NewReader(in.ticks[(t-1)%len(in.ticks)]), snap.Schema)
		})
		if err == nil {
			stage(ctx, "pipeline.observe_delta", func(ctx context.Context) {
				ev, _, err = runner.ObserveDelta(ctx, time.Now(), d)
			})
		}
		root.End()
		if err != nil {
			return traced{}, fmt.Errorf("traced tick %d: %w", t, err)
		}
		want := refs.at(t)
		var scopes []pattern
		if ev.Incident != nil {
			scopes = render(snap.Schema, ev.Incident.Scopes)
		}
		if ev.Kind.String() != want.event || samePatterns(scopes, want.scopes) != nil {
			return traced{}, fmt.Errorf("traced tick %d: %s %v, reference %s %v", t, ev.Kind, scopes, want.event, want.scopes)
		}
		win := runner.Window()
		st := win[len(win)-1]
		touched += float64(st.Touched)
		flipped += float64(st.Flipped)
		apply += ms(st.Apply)
		if st.Patched {
			patched++
		}
		if ev.Kind == pipeline.EventResolved {
			resolved++
		}
	}
	n := float64(w.traced)
	layer["kpi.touched_leaves"] = touched / n
	layer["kpi.patched_share"] = float64(patched) / n
	layer["anomaly.flipped_leaves"] = flipped / n
	layer["pipeline.apply.ms"] = apply / n
	layer["pipeline.resolved"] = float64(resolved)
	sum, err := finish(tr, w.name, out, layer)
	layer["pipeline.localize_share"] = float64(sum.calls["pipeline.localize"]) / n
	return sum, err
}

// traceReplay is the engine child's traced run.
func (e *engine) traceReplay(seed int64, out string) (map[string]float64, traced, error) {
	layer := make(map[string]float64)
	if e.w.kind == engineBaselines {
		sum, err := e.baselineReplay(seed, out, layer)
		return layer, sum, err
	}
	n := len(e.in.cases)
	tr := newTracer(e.w.traced)
	var diags []rapminer.Diagnostics
	for i := 0; i < e.w.traced; i++ {
		c := e.in.cases[i%n]
		snap := c.c.Snapshot.Clone()
		ctx, root := tr.op(c.family, false)
		var (
			res  localize.Result
			diag rapminer.Diagnostics
			err  error
		)
		stage(ctx, "kpi.columns", func(context.Context) { snap.Columns() })
		stage(ctx, "rapminer.localize", func(ctx context.Context) {
			res, diag, err = e.miner.LocalizeWithDiagnosticsContext(ctx, snap, k)
		})
		root.End()
		if err == nil {
			err = samePatterns(render(snap.Schema, res.Patterns), e.refs[i%n][0])
		}
		if err != nil {
			return nil, traced{}, fmt.Errorf("traced case %d: %w", i%n, err)
		}
		if i < n {
			diags = append(diags, diag)
		}
	}
	for name, v := range diagCounts(diags) {
		layer[name] = v
	}
	sum, err := finish(tr, e.w.name, out, layer)
	return layer, sum, err
}

// baselineReplay traces the five baselines on the RAPMD cases, HotSpot on
// the first few, and the five on extra sparse and deep cases: those show
// where an engine migration lands on wider worlds, where iDice and Squeeze
// take hundreds of ms.
func (e *engine) baselineReplay(seed int64, out string, layer map[string]float64) (traced, error) {
	hs, err := hotspotMethod()
	if err != nil {
		return traced{}, err
	}
	type traceCase struct {
		in      input
		extra   bool
		methods []method
		refs    [][]pattern
	}
	var cases []traceCase
	n := len(e.in.cases)
	for i := 0; i < e.w.traced; i++ {
		tc := traceCase{in: e.in.cases[i%n], methods: e.methods, refs: e.refs[i%n]}
		if i < e.w.hotspot {
			tc.methods = append(append([]method(nil), e.methods...), hs)
		}
		cases = append(cases, tc)
	}
	for j := 0; j < e.w.wide; j++ {
		for _, wld := range []world{sparseWorld, deepWorld} {
			c, err := wld.generate(structureSeed*1000 + 500 + int64(j))
			if err != nil {
				return traced{}, err
			}
			c = revalue(c, caseSeed(seed, 500+len(cases)))
			cases = append(cases, traceCase{in: input{family: wld.name, c: c}, extra: true, methods: e.methods})
		}
	}
	tr := newTracer(len(cases))
	for i, tc := range cases {
		ctx, root := tr.op(tc.in.family, tc.extra)
		for m, meth := range tc.methods {
			snap := tc.in.c.Snapshot.Clone()
			var res localize.Result
			stage(ctx, "baseline."+meth.name, func(ctx context.Context) { res, err = meth.run(ctx, snap) })
			if err == nil && m < len(tc.refs) {
				err = samePatterns(render(snap.Schema, res.Patterns), tc.refs[m])
			}
			if err != nil {
				return traced{}, fmt.Errorf("traced case %d %s: %w", i, meth.name, err)
			}
		}
		root.End()
	}
	return finish(tr, e.w.name, out, layer)
}
