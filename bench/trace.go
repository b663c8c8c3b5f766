package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
)

// The traced run replays inputs in-process through the program's public
// calls. Each input is one trace: a benchmark-side root span ("bench.op")
// whose children are benchmark-side spans around each public call. The ctx
// is passed down, so the spans the program already records
// (rapminer.attribute_deletion, rapminer.search, pipeline.detect,
// pipeline.localize) nest under the benchmark's spans.

// rootSpan names the benchmark's per-input span.
const rootSpan = "bench.op"

// tracer owns the span ring of one traced run.
type tracer struct {
	ring   *obs.SpanRing
	family map[string]string // trace ID -> input family
	extra  map[string]bool   // families outside the workload's own mix
}

// newTracer replaces the default span ring with one that holds every span
// of ops traced inputs.
func newTracer(ops int) *tracer {
	return &tracer{
		ring:   obs.ConfigureDefaultSpanRing(ops*16 + 64),
		family: make(map[string]string),
		extra:  make(map[string]bool),
	}
}

// op opens the root span of one traced input of the given family. Inputs of
// an extra family are traced only: they yield "<name>.<family>.ms" metrics
// but stay out of the workload-wide "<name>.ms" means.
func (t *tracer) op(family string, extra bool) (context.Context, *obs.Span) {
	ctx, span := obs.StartSpan(context.Background(), rootSpan)
	span.SetAttr("family", family)
	t.family[span.TraceID()] = family
	t.extra[family] = extra
	return ctx, span
}

// stage runs fn under a span named after the layer call it wraps.
func stage(ctx context.Context, name string, fn func(ctx context.Context)) {
	ctx, span := obs.StartSpan(ctx, name)
	defer span.End()
	fn(ctx)
}

// spans returns the run's spans, failing if the ring wrapped.
func (t *tracer) spans() ([]obs.SpanRecord, error) {
	if d := t.ring.Dropped(); d > 0 {
		return nil, fmt.Errorf("span ring dropped %d spans", d)
	}
	return t.ring.Recent(), nil
}

// selfStat is the summed self time of one span name and how often it ran.
type selfStat struct {
	ms    float64
	calls int
}

// selfTimes sums self time per span name: a span's duration minus the part
// of its interval that its children cover.
func selfTimes(spans []obs.SpanRecord) map[string]selfStat {
	children := make(map[string][]obs.SpanRecord)
	for _, s := range spans {
		if s.ParentID != "" {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	out := make(map[string]selfStat)
	for _, s := range spans {
		st := out[s.Name]
		st.ms += s.DurationMS - covered(s, children[s.SpanID])
		st.calls++
		out[s.Name] = st
	}
	return out
}

// covered is the length in ms of the union of the children's intervals,
// clipped to the parent's.
func covered(parent obs.SpanRecord, kids []obs.SpanRecord) float64 {
	type iv struct{ lo, hi time.Duration }
	pEnd := spanDuration(parent)
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo := k.Start.Sub(parent.Start)
		hi := lo + spanDuration(k)
		lo, hi = max(lo, 0), min(hi, pEnd)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi time.Duration
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return ms(total)
}

func spanDuration(s obs.SpanRecord) time.Duration {
	return time.Duration(s.DurationMS * float64(time.Millisecond))
}

// traced summarizes a traced run.
type traced struct {
	// stages maps "<name>.ms" and "<name>.<family>.ms" to the mean self
	// time per call of each span name but the root.
	stages map[string]float64
	// calls counts each span name over the inputs of the workload's own
	// mix; opMS is the mean root duration over them, and stagedMS the mean
	// part of it the stage spans cover.
	calls          map[string]int
	opMS, stagedMS float64
}

func (t *tracer) summarize(spans []obs.SpanRecord) traced {
	byFamily := make(map[string][]obs.SpanRecord)
	var own []obs.SpanRecord
	for _, s := range spans {
		fam, ok := t.family[s.TraceID]
		if !ok {
			continue
		}
		byFamily[fam] = append(byFamily[fam], s)
		if !t.extra[fam] {
			own = append(own, s)
		}
	}
	out := traced{stages: make(map[string]float64), calls: make(map[string]int)}
	for fam, ss := range byFamily {
		for name, st := range selfTimes(ss) {
			if name != rootSpan {
				out.stages[name+"."+fam+".ms"] = st.ms / float64(st.calls)
			}
		}
	}
	for name, st := range selfTimes(own) {
		out.calls[name] = st.calls
		if name == rootSpan {
			var total float64
			for _, s := range own {
				if s.Name == rootSpan {
					total += s.DurationMS
				}
			}
			out.opMS = total / float64(st.calls)
			out.stagedMS = (total - st.ms) / float64(st.calls)
			continue
		}
		out.stages[name+".ms"] = st.ms / float64(st.calls)
	}
	return out
}

// writeSpans dumps the run's spans, grouped by trace, to
// dir/spans-<workload>.json.
func writeSpans(dir, workload string, spans []obs.SpanRecord) error {
	if dir == "" {
		return nil
	}
	raw, err := json.MarshalIndent(struct {
		Workload string           `json:"workload"`
		Traces   []obs.TraceSpans `json:"traces"`
	}{workload, obs.GroupSpans(spans)}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+workload+".json"), raw, 0o644)
}
