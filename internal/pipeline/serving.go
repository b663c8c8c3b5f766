package pipeline

import (
	"context"
	"time"

	"repro/internal/kpi"
	"repro/internal/localize"
	"repro/internal/obs"
	"repro/internal/rapminer"
	"repro/internal/rapminer/explain"
)

// Serving is the one path the serving layers localize through: the HTTP
// API's POST /v1/localize and the Monitor's incident ticks both call
// Localize, whatever the method.
type Serving struct {
	// Source names the caller in explain reports ("httpapi", "pipeline").
	Source string
	// Registry receives RAPMiner's search metrics; nil means obs.Default().
	Registry *obs.Registry
	// Runs receives one explain report per run.
	Runs *explain.Store
}

// Localize runs l on snap under ctx inside a span named span, with panic
// isolation, and stores the run's explain report keyed by the span's trace
// ID. A RAPMiner run also publishes its search statistics (the paper's
// pruning telemetry) and journals them in the report; any other method's
// report carries the patterns it returned. A degraded run is served as is;
// its caller reports it (the HTTP API on its sampled request line, the
// Monitor once per tick).
func (s Serving) Localize(ctx context.Context, span string, l localize.Localizer, snap *kpi.Snapshot, k int) (localize.Result, error) {
	ctx, sp := obs.StartSpan(ctx, span)
	defer sp.End()
	start := time.Now()
	var (
		res    localize.Result
		err    error
		report explain.Report
	)
	// The miner recovers its own panics, as SafeLocalize does for the rest.
	if m, ok := l.(*rapminer.Miner); ok {
		var diag rapminer.Diagnostics
		if res, diag, err = m.LocalizeWithDiagnosticsContext(ctx, snap, k); err != nil {
			return res, err
		}
		rapminer.PublishDiagnostics(s.Registry, diag)
		sp.SetAttr("cuboids_visited", diag.CuboidsVisited)
		sp.SetAttr("early_stopped", diag.EarlyStopped)
		report = explain.New(sp.TraceID(), s.Source, l.Name(), snap, k, diag, time.Since(start))
	} else {
		if res, err = localize.SafeLocalize(ctx, l, snap, k); err != nil {
			return res, err
		}
		report = explain.NewResult(sp.TraceID(), s.Source, l.Name(), snap, k, res, time.Since(start))
	}
	sp.SetAttr("patterns", len(res.Patterns))
	s.Runs.Put(report)
	return res, nil
}
