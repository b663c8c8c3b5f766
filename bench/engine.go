package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/baseline/adtributor"
	"repro/internal/baseline/fpgrowth"
	"repro/internal/baseline/hotspot"
	"repro/internal/baseline/idice"
	"repro/internal/baseline/riskloc"
	"repro/internal/baseline/squeeze"
	"repro/internal/evalmetrics"
	"repro/internal/kpi"
	"repro/internal/localize"
	"repro/internal/rapminer"
)

// The engine workloads call the localizers in-process, in a re-executed
// child of the benchmark, so the process under test has its own memory
// high-water mark and its own cold start.

// method is one localizer as an engine op calls it.
type method struct {
	name string
	run  func(ctx context.Context, snap *kpi.Snapshot) (localize.Result, error)
}

func plain(name string, l localize.Localizer) method {
	return method{name: name, run: func(_ context.Context, s *kpi.Snapshot) (localize.Result, error) {
		return l.Localize(s, k)
	}}
}

// baselineMethods is the Fig. 9(b) roster row the engine-baselines op runs,
// in order.
func baselineMethods() ([]method, error) {
	rl, err1 := riskloc.New(riskloc.DefaultConfig())
	ad, err2 := adtributor.New(adtributor.DefaultConfig())
	sq, err3 := squeeze.New(squeeze.DefaultConfig())
	id, err4 := idice.New(idice.DefaultConfig())
	fp, err5 := fpgrowth.New(fpgrowth.DefaultConfig())
	if err := errors.Join(err1, err2, err3, err4, err5); err != nil {
		return nil, err
	}
	return []method{plain("riskloc", rl), plain("adtributor", ad), plain("squeeze", sq),
		plain("idice", id), plain("fpgrowth", fp)}, nil
}

// engine holds an engine workload's cases, methods and references.
type engine struct {
	w       workload
	in      *inputs
	miner   *rapminer.Miner
	methods []method
	refs    [][][]pattern // [case][method]
	rc      *evalmetrics.RCAtK
	fails   *failures
}

func newEngine(w workload, in *inputs) (*engine, error) {
	miner, err := rapminer.New(rapminer.DefaultConfig())
	if err != nil {
		return nil, err
	}
	e := &engine{w: w, in: in, miner: miner, refs: make([][][]pattern, len(in.cases)), fails: &failures{}}
	if w.kind == engineBaselines {
		e.methods, err = baselineMethods()
	} else {
		e.methods = []method{{name: "rapminer", run: func(ctx context.Context, s *kpi.Snapshot) (localize.Result, error) {
			return miner.LocalizeContext(ctx, s, k)
		}}}
	}
	if err != nil {
		return nil, err
	}
	e.rc, err = evalmetrics.NewRCAtK(k)
	return e, err
}

// op localizes case seq mod n with every method, each on a fresh clone so
// the snapshot's lazy caches start cold as they do for a decoded request.
// Only the localize calls are timed. The first op on a case records its
// reference; later ones must reproduce it.
func (e *engine) op(seq int) (time.Duration, error) {
	i := seq % len(e.in.cases)
	c := e.in.cases[i]
	var took time.Duration
	first := e.refs[i] == nil
	for m, meth := range e.methods {
		snap := c.c.Snapshot.Clone()
		start := time.Now()
		res, err := meth.run(context.Background(), snap)
		took += time.Since(start)
		if err == nil && res.Degraded {
			err = fmt.Errorf("degraded result")
		}
		if err != nil {
			return took, e.fails.note(fmt.Errorf("case %d %s: %w", i, meth.name, err))
		}
		got := render(snap.Schema, res.Patterns)
		if first {
			e.refs[i] = append(e.refs[i], got)
			e.rc.Add(res.TopK(k), c.c.RAPs)
		} else if err := samePatterns(got, e.refs[i][m]); err != nil {
			return took, e.fails.note(fmt.Errorf("case %d %s: %w", i, meth.name, err))
		}
	}
	return took, nil
}

// engineReport is what an engine child sends back to the benchmark.
type engineReport struct {
	LatencyMS []float64          `json:"latency_ms"` // reference time
	KernelMS  []float64          `json:"kernel_ms"`  // the child's calibrations
	Ops       int                `json:"ops"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	RC        float64            `json:"rc_at_3"`
	Layer     map[string]float64 `json:"layer,omitempty"`
}

// engineChunk is the length of one stretch of an engine child's loop; the
// child calibrates between stretches.
const engineChunk = 250 * time.Millisecond

// runEngine is the body of an engine child: generate the cases, run the
// first op (ready is called once it succeeds), then record every case's
// reference and run the closed loop with one caller for seconds. With
// trace it then runs the traced replay.
func runEngine(w workload, seed int64, seconds float64, trace bool, out string, ready func()) (*engineReport, error) {
	in, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	e, err := newEngine(w, in)
	if err != nil {
		return nil, err
	}
	if _, err := e.op(0); err != nil {
		return nil, fmt.Errorf("first op: %w", err)
	}
	ready()
	for i := 1; i < len(in.cases); i++ {
		if _, err := e.op(i); err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
	}
	// Input generation leaves garbage the localizers did not make.
	runtime.GC()
	speed := newMeter()
	next := 0
	fn := func() (time.Duration, error) {
		next++
		return e.op(next - 1)
	}
	var (
		p     phase
		rawMS float64 // summed op time before conversion, for the trace overhead
	)
	n, length := chunks(time.Duration(seconds*float64(time.Second)), engineChunk)
	for i := 0; i < n; i++ {
		var q *phase
		f := speed.stretch(func() { q = closedLoop(length, 1, fn) })
		for _, l := range q.latency {
			rawMS += l
		}
		p.add(q, f)
	}
	st, err := readProc(os.Getpid())
	if err != nil {
		return nil, err
	}
	rep := &engineReport{
		LatencyMS: p.latency, KernelMS: speed.all, Ops: p.ops, Failed: p.failed, Failures: e.fails.first,
		PeakRSSMB: st.hwmMB, RC: e.rc.Value(),
	}
	if trace {
		var sum traced
		if rep.Layer, sum, err = e.traceReplay(seed, out); err != nil {
			return nil, err
		}
		if w.kind == engineRAPMiner {
			rep.Layer["trace.overhead_pct"] = (sum.opMS/(rawMS/float64(p.ops)) - 1) * 100
		}
	}
	return rep, nil
}

// childMain is the entry point of a re-executed engine child: it reports
// "ready" on stdout once its first op succeeded, then its report as JSON.
func childMain(w workload, seed int64, seconds float64, trace bool, out string) error {
	rep, err := runEngine(w, seed, seconds, trace, out, func() { fmt.Println("ready") })
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// engineStarter runs one engine child and returns the time from its start
// to its first successful op, and its report.
type engineStarter func(w workload, seed int64, seconds float64, trace bool, out string) (time.Duration, *engineReport, error)

// execEngine re-executes the benchmark binary as an engine child.
func execEngine(w workload, seed int64, seconds float64, trace bool, out string) (time.Duration, *engineReport, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	args := []string{"-child", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-out", out}
	if trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	r := bufio.NewReader(stdout)
	line, err := r.ReadString('\n')
	setup := time.Since(start)
	rep := &engineReport{}
	if err == nil && strings.TrimSpace(line) != "ready" {
		err = fmt.Errorf("engine child said %q, want ready", line)
	}
	if err == nil {
		err = json.NewDecoder(r).Decode(rep)
	}
	if err != nil {
		// The child may be blocked writing output nobody reads.
		_ = cmd.Process.Kill()
	}
	if waitErr := cmd.Wait(); err == nil {
		err = waitErr
	}
	if err != nil {
		return 0, nil, fmt.Errorf("engine child %s: %w", w.name, err)
	}
	return setup, rep, nil
}

// engineRun is what one engine workload run measured, pooled over its
// children.
type engineRun struct {
	setup  []float64 // reference seconds from exec to first op, per child
	loop   phase
	hwmMB  []float64 // peak resident set, per child
	rc     float64
	layer  map[string]float64
	kernel []float64 // every calibration, the parent's and the children's
}

// runEngineWorkload starts coldStarts children, each timed to its first op
// and then measuring its share of seconds; their samples are pooled. The
// last child also runs the traced replay when trace is set.
func runEngineWorkload(w workload, seed int64, seconds float64, trace bool, out string, start engineStarter) (*engineRun, error) {
	run := &engineRun{}
	speed := newMeter()
	for i := 0; i < coldStarts; i++ {
		// The parent waits while the child runs, so its calibration just
		// before the start converts the child's set-up time.
		kernel := speed.calibrate()
		setup, rep, err := start(w, seed, seconds/coldStarts, trace && i == coldStarts-1, out)
		if err != nil {
			return nil, err
		}
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, f)
		}
		if i > 0 && rep.RC != run.rc {
			return nil, fmt.Errorf("child %d scored RC@3 %v, child 1 %v", i+1, rep.RC, run.rc)
		}
		run.setup = append(run.setup, setup.Seconds()*refKernelMS/kernel)
		// The child has converted its latencies already.
		run.loop.add(&phase{latency: rep.LatencyMS, ops: rep.Ops, failed: rep.Failed}, 1)
		run.hwmMB = append(run.hwmMB, rep.PeakRSSMB)
		run.rc, run.layer = rep.RC, rep.Layer
		run.kernel = append(run.kernel, rep.KernelMS...)
	}
	run.kernel = append(run.kernel, speed.all...)
	return run, nil
}

// hotspotMethod is the baseline the traced run adds: it costs more than ten
// times the other five together, so the timed loop leaves it out.
func hotspotMethod() (method, error) {
	l, err := hotspot.New(hotspot.DefaultConfig())
	if err != nil {
		return method{}, err
	}
	return plain("hotspot", l), nil
}
