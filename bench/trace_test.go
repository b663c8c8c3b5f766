package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

// span builds a record starting at offset ms after t0 and lasting dur ms.
func span(name, id, parent string, offset, dur float64) obs.SpanRecord {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	return obs.SpanRecord{
		Name: name, SpanID: id, ParentID: parent, TraceID: "t",
		Start: t0.Add(time.Duration(offset * float64(time.Millisecond))), DurationMS: dur,
	}
}

func TestSelfTimesOnSyntheticTree(t *testing.T) {
	spans := []obs.SpanRecord{
		span("root", "r", "", 0, 100),
		span("a", "a", "r", 10, 30),   // 10-40
		span("b", "b", "r", 30, 30),   // 30-60, overlaps a
		span("c", "c", "a", 15, 10),   // 15-25 inside a
		span("d", "d", "r", 90, 20),   // 90-110, runs past its parent
		span("a", "a2", "r", 70, 5),   // a second call of a
		span("e", "e", "b", 100, 100), // entirely outside its parent
	}
	got := selfTimes(spans)
	want := map[string]selfStat{
		"root": {100 - 50 - 5 - 10, 1}, // children cover 10-60, 70-75 and 90-100
		"a":    {30 - 10 + 5, 2},
		"b":    {30, 1},
		"c":    {10, 1},
		"d":    {20, 1},
		"e":    {100, 1},
	}
	for name, w := range want {
		if g := got[name]; math.Abs(g.ms-w.ms) > 1e-9 || g.calls != w.calls {
			t.Errorf("%s: self %.3f ms over %d calls, want %.3f over %d", name, g.ms, g.calls, w.ms, w.calls)
		}
	}
}

func TestSummarizeKeepsExtraFamiliesOutOfTheMeans(t *testing.T) {
	tr := &tracer{
		family: map[string]string{"t1": "cdn", "t2": "cdn", "t3": "sparse"},
		extra:  map[string]bool{"cdn": false, "sparse": true},
	}
	rec := func(trace, name, id, parent string, offset, dur float64) obs.SpanRecord {
		s := span(name, id, parent, offset, dur)
		s.TraceID = trace
		return s
	}
	sum := tr.summarize([]obs.SpanRecord{
		rec("t1", rootSpan, "r1", "", 0, 10), rec("t1", "x", "x1", "r1", 0, 4),
		rec("t2", rootSpan, "r2", "", 0, 20), rec("t2", "x", "x2", "r2", 0, 8),
		rec("t3", rootSpan, "r3", "", 0, 90), rec("t3", "x", "x3", "r3", 0, 60),
	})
	for name, want := range map[string]float64{"x.ms": 6, "x.cdn.ms": 6, "x.sparse.ms": 60} {
		if got := sum.stages[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if sum.opMS != 15 || sum.stagedMS != 6 {
		t.Errorf("op %v ms with %v ms staged, want 15 and 6", sum.opMS, sum.stagedMS)
	}
}
