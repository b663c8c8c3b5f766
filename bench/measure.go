package main

// measure runs one workload's end-to-end run and returns its result with
// the end-to-end metrics filled in. The returned replay runs the traced run
// and adds the per-layer metrics; engine workloads trace inside their child
// when o.trace is set, so their replay has nothing left to do.
func measure(w workload, o options) (*result, func() error, error) {
	res := &result{
		Workload: w.name, Seed: o.seed, Seconds: o.length(w),
		EndToEnd: make(map[string]float64), PerLayer: make(map[string]float64),
	}
	if !w.kind.server() {
		run, err := runEngineWorkload(w, o.seed, o.length(w), o.trace, o.out, o.start)
		if err != nil {
			return nil, nil, err
		}
		res.Traced = o.trace
		return res, func() error { return nil }, engineMetrics(w, run, res)
	}

	in, err := w.generate(o.seed)
	if err != nil {
		return nil, nil, err
	}
	var (
		oneRefs [][]pattern
		tRefs   *tickRefs
		rc      float64
	)
	if w.kind == ticks {
		tRefs, rc, err = tickReferences(in)
	} else {
		oneRefs, rc, err = oneshotReferences(in)
	}
	if err != nil {
		return nil, nil, err
	}
	run, err := runServer(w, in, o.launch, o.length(w), oneRefs, tRefs)
	if err != nil {
		return nil, nil, err
	}
	if err := serverMetrics(w, run, rc, res); err != nil {
		return nil, nil, err
	}
	replay := func() error {
		var (
			sum traced
			err error
		)
		if w.kind == ticks {
			sum, err = tickReplay(w, in, tRefs, o.out, res.PerLayer)
		} else {
			sum, err = oneshotReplay(w, in, oneRefs, o.out, res.PerLayer)
		}
		// What the traced stages do not account for of a request as the
		// client saw it: HTTP, middleware, observability, encode.
		res.PerLayer["httpapi.residual.ms"] = mean(run.open.service) - sum.stagedMS
		res.Traced = true
		return err
	}
	return res, replay, nil
}
