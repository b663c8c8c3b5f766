package gendata

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/kpi"
)

func tickTestSpec() StreamSpec {
	return StreamSpec{
		Attributes: []StreamAttr{
			{Name: "region", Cardinality: 10},
			{Name: "isp", Cardinality: 6},
			{Name: "proto", Cardinality: 4},
		},
		Seed:    41,
		NumRAPs: 2,
	}
}

func TestTickSpecValidate(t *testing.T) {
	good := []TickSpec{
		{TouchFraction: 0.05},
		{TouchFraction: 1},
		{TouchFraction: 0.1, FailEvery: 5, FailFor: 1},
		{TouchFraction: 0.1, FailEvery: 5, FailFor: 5},
	}
	for i, ts := range good {
		if err := ts.Validate(); err != nil {
			t.Errorf("spec %d rejected: %v", i, err)
		}
	}
	bad := []TickSpec{
		{},
		{TouchFraction: -0.1},
		{TouchFraction: 1.5},
		{TouchFraction: 0.1, FailEvery: -1},
		{TouchFraction: 0.1, FailEvery: 5, FailFor: 0},
		{TouchFraction: 0.1, FailEvery: 5, FailFor: 6},
	}
	for i, ts := range bad {
		if err := ts.Validate(); err == nil {
			t.Errorf("spec %d accepted", i)
		}
	}
}

func TestTickSpecFailing(t *testing.T) {
	ts := TickSpec{TouchFraction: 0.1, FailEvery: 5, FailFor: 2}
	want := map[int]bool{1: true, 2: true, 3: false, 5: false, 6: true, 7: true, 8: false}
	for tick, exp := range want {
		if got := ts.Failing(tick); got != exp {
			t.Errorf("Failing(%d) = %v, want %v", tick, got, exp)
		}
	}
	if (TickSpec{TouchFraction: 0.1}).Failing(1) {
		t.Error("FailEvery 0 reported a failure window")
	}
}

// TestTickDeltaDeterministic: tick deltas are pure functions of (seed, tick)
// — two materializations are identical, and different ticks differ.
func TestTickDeltaDeterministic(t *testing.T) {
	spec := tickTestSpec()
	ts := TickSpec{TouchFraction: 0.1, FailEvery: 4, FailFor: 2}
	a, err := spec.TickDelta(ts, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.TickDelta(ts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same tick materialized differently")
	}
	if len(a.Updates) == 0 {
		t.Fatal("tick 3 touched nothing")
	}
	c, err := spec.TickDelta(ts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Updates, c.Updates) {
		t.Fatal("ticks 3 and 4 identical")
	}
}

// TestStreamTickJSONMatchesTickDelta: the streamed wire format parses back
// (via the kpi delta reader) to exactly the materialized delta.
func TestStreamTickJSONMatchesTickDelta(t *testing.T) {
	spec := tickTestSpec()
	ts := TickSpec{TouchFraction: 0.07, FailEvery: 3, FailFor: 1}
	schema, err := spec.Schema()
	if err != nil {
		t.Fatal(err)
	}
	for _, tick := range []int{1, 2, 5} {
		var buf bytes.Buffer
		if err := spec.StreamTickJSON(&buf, ts, tick); err != nil {
			t.Fatal(err)
		}
		got, err := kpi.ReadDeltaJSON(&buf, schema)
		if err != nil {
			t.Fatalf("tick %d: reparse: %v", tick, err)
		}
		want, err := spec.TickDelta(ts, tick)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Removes) != 0 || len(got.Adds) != 0 {
			t.Fatalf("tick %d: streamed delta carries churn", tick)
		}
		if !reflect.DeepEqual(got.Updates, want.Updates) {
			t.Fatalf("tick %d: streamed updates diverge from TickDelta (%d vs %d)",
				tick, len(got.Updates), len(want.Updates))
		}
	}
}

// TestTickDeltaDrivesIncidents: applied over the clean Background baseline,
// failing ticks make the RAP-covered leaves anomalous and clean ticks heal
// them — the stream can both open and resolve incidents.
func TestTickDeltaDrivesIncidents(t *testing.T) {
	spec := tickTestSpec()
	ts := TickSpec{TouchFraction: 0.05, FailEvery: 3, FailFor: 1}
	det := anomaly.DefaultRelativeDeviation()

	snap, err := spec.Background().StreamSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n := anomaly.Label(snap, det); n != 0 {
		t.Fatalf("background baseline has %d anomalies, want clean", n)
	}

	apply := func(tick int) int {
		t.Helper()
		d, err := spec.TickDelta(ts, tick)
		if err != nil {
			t.Fatal(err)
		}
		res, err := snap.ApplyDelta(d)
		if err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		anomaly.LabelDelta(snap, det, res.Touched)
		return snap.NumAnomalous()
	}

	// Tick 1 is a failure window: the RAP leaves deviate.
	if n := apply(1); n == 0 {
		t.Fatal("failing tick produced no anomalies")
	}
	// Ticks 2 and 3 are clean, and RAP leaves are re-observed every tick, so
	// the anomalies heal.
	apply(2)
	if n := apply(3); n != 0 {
		t.Fatalf("clean ticks left %d anomalies", n)
	}
}

// TickDelta materializes tick's delta (1-based) as update records against
// the corpus schema: the in-memory reference StreamTickJSON's output is
// held to.
func (s StreamSpec) TickDelta(t TickSpec, tick int) (kpi.Delta, error) {
	if err := s.Validate(); err != nil {
		return kpi.Delta{}, err
	}
	if err := t.Validate(); err != nil {
		return kpi.Delta{}, err
	}
	if tick < 1 {
		return kpi.Delta{}, fmt.Errorf("gendata: tick %d, want >= 1", tick)
	}
	raps := s.RAPs()
	total := s.NumLeaves()
	nAttr := len(s.Attributes)
	var d kpi.Delta
	combo := make(kpi.Combination, nAttr)
	for i := 0; i < total; i++ {
		touched, v, f := s.tickLeaf(i, tick, t, raps, combo)
		if !touched {
			continue
		}
		d.Updates = append(d.Updates, kpi.LeafUpdate{
			Combo:    combo.Clone(),
			Actual:   v,
			Forecast: f,
		})
	}
	return d, nil
}
