package main

import (
	"bytes"
	"fmt"
	"slices"
	"sync"

	"repro/internal/gendata"
	"repro/internal/inject"
	"repro/internal/kpi"
	"repro/internal/localize"
)

// kind says how a workload drives the program.
type kind int

const (
	// oneshot posts snapshots to POST /v1/localize.
	oneshot kind = iota
	// ticks installs a baseline and streams deltas to POST /v1/observe/delta.
	ticks
	// engineRAPMiner calls Miner.LocalizeContext in-process.
	engineRAPMiner
	// engineBaselines calls the five baseline localizers in-process.
	engineBaselines
)

func (k kind) server() bool { return k == oneshot || k == ticks }

// workload is one traffic mix. The comment on each entry of workloads says
// which layers it isolates; the why field is the one-line summary printed
// into BENCHMARK.json.
type workload struct {
	name string
	why  string
	kind kind

	// Server workloads: open-loop send rate, client connections, and the
	// share of the run spent in the open loop (the rest is the closed loop
	// that measures max_ops).
	rate      float64
	conns     int
	openShare float64
	// tail is the fixed percentile reported as tail_ms.
	tail float64
	// seconds is the default measured length of one run.
	seconds float64

	// Inputs.
	rapmd        int                  // RAPMD cases, labels as injected
	stream       []gendata.StreamAttr // stream corpus attributes
	streamCases  int                  // stream cases, sent unlabeled
	sparse       int                  // sparse-world cases
	deep         int                  // deep-world cases
	tickWorld    []gendata.StreamAttr // continuous world
	tickRAPAttrs [][]int              // attributes each injected tick RAP constrains
	tickBodies   int                  // distinct pre-rendered ticks, cycled
	tick         gendata.TickSpec
	// traced is how many inputs the traced run replays. The baselines'
	// traced run also localizes the first hotspot RAPMD cases with HotSpot,
	// and wide sparse and wide deep cases with the five baselines.
	traced  int
	hotspot int
	wide    int
}

func attr(name string, card int) gendata.StreamAttr {
	return gendata.StreamAttr{Name: name, Cardinality: card}
}

var workloads = []workload{
	{
		// Decode-bound today: kpi.ReadJSON of a ~1 MB body is by far the
		// largest stage, so it shows decode/build changes and barely shows
		// search.
		name: "oneshot-cdn", kind: oneshot,
		why:  "Paper's CDN shape at the API: 8 labeled RAPMD cases of ~10k leaves; decode-bound, so it shows kpi decode and build changes",
		rate: 16, conns: 2, openShare: 0.7, tail: 90, seconds: 26,
		rapmd: 8, traced: 200,
	},
	{
		// Per-request fixed costs dominate: handler, middleware, obs metrics,
		// spans, SLO windows and the explain store; labeling runs server-side.
		name: "oneshot-small", kind: oneshot,
		why:  "480-leaf unlabeled snapshots at 300 req/s: per-request fixed costs (handler, obs, explain, labeling) dominate",
		rate: 300, conns: 2, openShare: 0.5, tail: 90, seconds: 26,
		stream: []gendata.StreamAttr{attr("region", 12), attr("isp", 8), attr("proto", 5)}, streamCases: 6, traced: 200,
	},
	{
		// The write path: delta decode, ApplyDelta, LabelDelta, the monitor,
		// and localizing a long-lived snapshot. kpi is patched, not built.
		name: "ticks-115k", kind: ticks,
		why:  "Continuous write path on a 115,200-leaf world: delta decode, ApplyDelta, LabelDelta, monitor and localize of a patched snapshot",
		rate: 40, conns: 1, openShare: 0.5, tail: 90, seconds: 26,
		tickWorld:    []gendata.StreamAttr{attr("region", 48), attr("isp", 20), attr("proto", 10), attr("tier", 12)},
		tickRAPAttrs: [][]int{{0, 1, 2}, {1, 2, 3}},
		tickBodies:   100, tick: gendata.TickSpec{TouchFraction: 0.01, FailEvery: 10, FailFor: 3},
		traced: 200,
	},
	{
		// No HTTP and no decode: Algorithms 1 and 2 do almost all the work.
		// The sparse family sends part of the lattice to the leaf-scan
		// fallback; the deep family is served by roll-up three layers down.
		name: "engine-rapminer", kind: engineRAPMiner,
		why:  "In-process Miner.LocalizeContext on fresh clones of RAPMD, sparse and deep cases: Algorithms 1 and 2 do the work",
		tail: 99, seconds: 20,
		rapmd: 8, sparse: 4, deep: 4, traced: 200,
	},
	{
		// Baselines do all the work and RAPMiner none. HotSpot is traced only:
		// it costs more than ten times the other five together.
		name: "engine-baselines", kind: engineBaselines,
		why:  "In-process RiskLoc, Adtributor, Squeeze, iDice and FP-growth on each RAPMD case: the baseline localizers do the work",
		tail: 90, seconds: 20,
		rapmd: 8, traced: 40, hotspot: 2, wide: 2,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// input is one distinct request or engine case, cycled during a run.
type input struct {
	family string      // cdn, small, sparse or deep
	c      inject.Case // the case as generated (engine workloads run on clones)
	body   []byte      // the request body (server workloads)
}

// inputs are a workload's generated inputs. The program under test only
// ever receives these.
type inputs struct {
	cases []input
	// Ticks: the clean baseline, the cycled tick bodies and the RAPs the
	// failure windows perturb.
	baseline []byte
	ticks    [][]byte
	tick     gendata.TickSpec
	tickRAPs []kpi.Combination
}

// structureSeed fixes the failure structure of every workload: the leaf
// sets, the injected RAPs and the labels. The run's seed redraws every KPI
// value under that structure (see revalue), so runs on different seeds ask
// the localizers for the same search over different data, and a metric's
// spread across seeds measures the benchmark, not the luck of the draw.
const structureSeed = 1

// caseSeed derives case i's value seed from the run's seed.
func caseSeed(seed int64, i int) int64 {
	return int64(splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)))
}

// generate builds a workload's inputs from the seed: the same seed gives
// the same bytes.
func (w workload) generate(seed int64) (*inputs, error) {
	in := &inputs{}
	add := func(family string, c inject.Case) {
		in.cases = append(in.cases, input{family: family, c: revalue(c, caseSeed(seed, len(in.cases)))})
	}
	if w.rapmd > 0 {
		// One worker: RAPMD cases are identical at any worker count, and the
		// benchmark's own setup stays within its thread budget.
		corpus, err := gendata.RAPMDParallel(structureSeed, w.rapmd, 1)
		if err != nil {
			return nil, err
		}
		for _, c := range corpus.Cases {
			add("cdn", c)
		}
	}
	for i := 0; i < w.streamCases; i++ {
		spec := gendata.StreamSpec{Attributes: w.stream, Seed: structureSeed*1000 + int64(i), NumRAPs: 2, Workers: 1}
		c, err := spec.StreamCase()
		if err != nil {
			return nil, err
		}
		add("small", c)
		// Sent unlabeled, so the server runs anomaly.Label itself.
		last := in.cases[len(in.cases)-1].c.Snapshot
		for j := range last.Leaves {
			last.Leaves[j].Anomalous = false
		}
	}
	for _, fam := range []struct {
		w world
		n int
	}{{sparseWorld, w.sparse}, {deepWorld, w.deep}} {
		for i := 0; i < fam.n; i++ {
			c, err := fam.w.generate(structureSeed*1000 + int64(i))
			if err != nil {
				return nil, err
			}
			add(fam.w.name, c)
		}
	}
	if w.kind == oneshot {
		for i := range in.cases {
			var buf bytes.Buffer
			if err := kpi.WriteJSON(&buf, in.cases[i].c.Snapshot); err != nil {
				return nil, err
			}
			in.cases[i].body = buf.Bytes()
		}
	}
	if w.kind == ticks {
		if err := w.generateTicks(seed, in); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// tickSpec is the continuous world for seed: the first spec seed drawn from
// seed whose RAPs constrain exactly the tickRAPAttrs attribute sets, so on
// every seed the failure windows cover the same number of leaves and the
// search keeps the same attributes. The leaves, touches and values follow
// the drawn spec seed.
func (w workload) tickSpec(seed int64) (gendata.StreamSpec, error) {
	spec := gendata.StreamSpec{Attributes: w.tickWorld, NumRAPs: len(w.tickRAPAttrs), RAPDim: len(w.tickRAPAttrs[0]), Workers: 1}
	for j := 0; j < 10000; j++ {
		spec.Seed = caseSeed(seed, j)
		match := true
		for r, rap := range spec.RAPs() {
			match = match && slices.Equal(rap.Attrs(), w.tickRAPAttrs[r])
		}
		if match {
			return spec, nil
		}
	}
	return spec, fmt.Errorf("%s: no tick world for seed %d has RAPs on %v", w.name, seed, w.tickRAPAttrs)
}

// generateTicks renders the clean baseline and the cycled tick deltas. The
// failure period must divide the tick count, so tick n+tickBodies is the
// same failure phase as tick n.
func (w workload) generateTicks(seed int64, in *inputs) error {
	if w.tick.FailEvery > 0 && w.tickBodies%w.tick.FailEvery != 0 {
		return fmt.Errorf("%s: failure period %d does not divide %d ticks", w.name, w.tick.FailEvery, w.tickBodies)
	}
	spec, err := w.tickSpec(seed)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := spec.Background().StreamWriteJSON(&buf); err != nil {
		return err
	}
	in.baseline = buf.Bytes()
	in.tick = w.tick
	in.tickRAPs = spec.RAPs()
	in.ticks = make([][]byte, w.tickBodies)
	// Two renderers: a tick body walks every leaf of the world.
	var (
		wg   sync.WaitGroup
		errs [2]error
	)
	for r := range errs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for t := r; t < w.tickBodies; t += len(errs) {
				var b bytes.Buffer
				if err := spec.StreamTickJSON(&b, w.tick, t+1); err != nil {
					errs[r] = err
					return
				}
				in.ticks[t] = b.Bytes()
			}
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// pattern is one returned pattern in wire form: element names and score.
type pattern struct {
	Combination []string `json:"combination"`
	Score       float64  `json:"score"`
}

// render maps scored patterns to wire form through the schema.
func render(schema *kpi.Schema, ps []localize.ScoredPattern) []pattern {
	out := make([]pattern, len(ps))
	for i, p := range ps {
		names := make([]string, len(p.Combo))
		for a, code := range p.Combo {
			if code == kpi.Wildcard {
				names[a] = kpi.WildcardToken
			} else {
				names[a] = schema.Value(a, code)
			}
		}
		out[i] = pattern{Combination: names, Score: p.Score}
	}
	return out
}

// scoreTolerance is how far a score may drift from the reference.
const scoreTolerance = 1e-9

// samePatterns compares patterns exactly and scores within scoreTolerance.
func samePatterns(got, want []pattern) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d patterns, reference has %d", len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i].Combination, want[i].Combination) {
			return fmt.Errorf("pattern %d is %v, reference %v", i, got[i].Combination, want[i].Combination)
		}
		if d := got[i].Score - want[i].Score; d > scoreTolerance || d < -scoreTolerance {
			return fmt.Errorf("pattern %d score %v, reference %v", i, got[i].Score, want[i].Score)
		}
	}
	return nil
}
