package riskloc

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/kpi"
)

func testSchema() *kpi.Schema {
	return kpi.MustSchema(
		kpi.Attribute{Name: "A", Values: []string{"a1", "a2", "a3", "a4"}},
		kpi.Attribute{Name: "B", Values: []string{"b1", "b2", "b3"}},
		kpi.Attribute{Name: "C", Values: []string{"c1", "c2"}},
	)
}

// injectedSnapshot builds a dense snapshot where each RAP's descendants are
// reduced by the paired magnitude (first matching RAP wins).
func injectedSnapshot(t testing.TB, s *kpi.Schema, raps []kpi.Combination, magnitudes []float64) *kpi.Snapshot {
	t.Helper()
	if len(raps) != len(magnitudes) {
		t.Fatal("raps and magnitudes must pair up")
	}
	var leaves []kpi.Leaf
	n := s.NumAttributes()
	combo := make(kpi.Combination, n)
	var rec func(depth int)
	rec = func(depth int) {
		if depth == n {
			c := combo.Clone()
			leaf := kpi.Leaf{Combo: c, Actual: 100, Forecast: 100}
			for ri, r := range raps {
				if r.Matches(c) {
					leaf.Actual = 100 * (1 - magnitudes[ri])
					leaf.Anomalous = true
					break
				}
			}
			leaves = append(leaves, leaf)
			return
		}
		for v := int32(0); v < int32(s.Cardinality(depth)); v++ {
			combo[depth] = v
			rec(depth + 1)
		}
	}
	rec(0)
	snap, err := kpi.NewSnapshot(s, leaves)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	return snap
}

func mustNew(t testing.TB) *Localizer {
	t.Helper()
	l, err := New(DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return l
}

func TestRiskLocNewValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.PartitionCut = 0 },
		func(c *Config) { c.PartitionCut = 1 },
		func(c *Config) { c.RiskThreshold = 0 },
		func(c *Config) { c.RiskThreshold = 1.5 },
		func(c *Config) { c.EPThreshold = -0.1 },
		func(c *Config) { c.EPThreshold = 1 },
		func(c *Config) { c.MaxElements = 0 },
		func(c *Config) { c.ResidualFloor = -1 },
		func(c *Config) { c.ResidualFloor = 1 },
		func(c *Config) { c.Eps = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestRiskLocLocalizeArgErrors(t *testing.T) {
	l := mustNew(t)
	if _, err := l.Localize(nil, 3); err == nil {
		t.Error("nil snapshot accepted")
	}
	s := testSchema()
	snap := injectedSnapshot(t, s, nil, nil)
	if _, err := l.Localize(snap, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestRiskLocCleanSnapshotReturnsEmpty(t *testing.T) {
	s := testSchema()
	snap := injectedSnapshot(t, s, nil, nil)
	res, err := mustNew(t).Localize(snap, 5)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(res.Patterns) != 0 || res.Degraded {
		t.Fatalf("clean snapshot produced %+v", res)
	}
}

func TestRiskLocLocalizeSingleLayer1RAP(t *testing.T) {
	s := testSchema()
	rap := kpi.MustParseCombination(s, "(a1, *, *)")
	snap := injectedSnapshot(t, s, []kpi.Combination{rap}, []float64{0.6})
	res, err := mustNew(t).Localize(snap, 3)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(res.Patterns) == 0 || !res.Patterns[0].Combo.Equal(rap) {
		t.Fatalf("got %s, want (a1, *, *) first", res.Format(s))
	}
	if res.Patterns[0].Score < DefaultConfig().RiskThreshold {
		t.Errorf("risk of exact RAP = %v, want >= threshold", res.Patterns[0].Score)
	}
}

func TestRiskLocLocalizeLayer2RAPNotAbsorbedByAncestor(t *testing.T) {
	s := testSchema()
	rap := kpi.MustParseCombination(s, "(a1, b2, *)")
	snap := injectedSnapshot(t, s, []kpi.Combination{rap}, []float64{0.6})
	res, err := mustNew(t).Localize(snap, 3)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(res.Patterns) == 0 || !res.Patterns[0].Combo.Equal(rap) {
		t.Fatalf("got %s, want (a1, b2, *) first", res.Format(s))
	}
	// The normal-leakage penalty must keep the layer-1 ancestors from
	// qualifying: (a1,*,*) dilutes the selection with confidently-normal
	// leaves, so its risk stays below the acceptance threshold.
	for _, p := range res.Patterns {
		if p.Combo.Layer() == 1 && p.Score >= DefaultConfig().RiskThreshold {
			t.Errorf("ancestor %s qualified with risk %v", p.Combo.Format(s), p.Score)
		}
	}
}

func TestRiskLocLocalizeTwoRAPsSameCuboid(t *testing.T) {
	s := testSchema()
	raps := []kpi.Combination{
		kpi.MustParseCombination(s, "(a1, *, *)"),
		kpi.MustParseCombination(s, "(a3, *, *)"),
	}
	snap := injectedSnapshot(t, s, raps, []float64{0.6, 0.55})
	res, err := mustNew(t).Localize(snap, 3)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(res.Patterns) < 2 {
		t.Fatalf("got %d patterns, want both elements: %s", len(res.Patterns), res.Format(s))
	}
	found := map[string]bool{}
	for _, p := range res.Patterns[:2] {
		found[p.Combo.Format(s)] = true
	}
	if !found["(a1, *, *)"] || !found["(a3, *, *)"] {
		t.Fatalf("top-2 = %s, want a1 and a3 elements", res.Format(s))
	}
}

func TestRiskLocLocalizeMixedLayerRAPsViaResidual(t *testing.T) {
	// A layer-1 RAP plus a layer-2 RAP in a disjoint cuboid: the first is
	// accepted at layer 1, its abnormal weight is retired, and the
	// residual search must still surface the deeper pattern.
	s := testSchema()
	raps := []kpi.Combination{
		kpi.MustParseCombination(s, "(a1, *, *)"),
		kpi.MustParseCombination(s, "(*, b3, c2)"),
	}
	snap := injectedSnapshot(t, s, raps, []float64{0.6, 0.5})
	res, err := mustNew(t).Localize(snap, 5)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	found := map[string]float64{}
	for _, p := range res.Patterns {
		found[p.Combo.Format(s)] = p.Score
	}
	th := DefaultConfig().RiskThreshold
	if found["(a1, *, *)"] < th {
		t.Errorf("layer-1 RAP missing or sub-threshold: %s", res.Format(s))
	}
	if found["(*, b3, c2)"] < th {
		t.Errorf("residual layer-2 RAP missing or sub-threshold: %s", res.Format(s))
	}
}

func TestRiskLocLocalizeSurgeDirection(t *testing.T) {
	// Anomalies that increase the KPI (actual > forecast) must be
	// mirrored into the positive partition and localized the same way.
	s := testSchema()
	rap := kpi.MustParseCombination(s, "(a2, *, *)")
	snap := injectedSnapshot(t, s, nil, nil)
	snap.Rewrite(func(l kpi.Leaf) (float64, float64, bool) {
		if rap.Matches(l.Combo) {
			return 180, l.Forecast, true
		}
		return l.Actual, l.Forecast, l.Anomalous
	})
	res, err := mustNew(t).Localize(snap, 3)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(res.Patterns) == 0 || !res.Patterns[0].Combo.Equal(rap) {
		t.Fatalf("surge case: got %s, want (a2, *, *)", res.Format(s))
	}
}

func TestRiskLocLocalizeDeterministic(t *testing.T) {
	s := testSchema()
	raps := []kpi.Combination{
		kpi.MustParseCombination(s, "(a1, *, *)"),
		kpi.MustParseCombination(s, "(*, b3, c2)"),
	}
	snap := injectedSnapshot(t, s, raps, []float64{0.6, 0.5})
	l := mustNew(t)
	want, err := l.Localize(snap, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got, err := l.Localize(snap, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d diverged:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestRiskLocName(t *testing.T) {
	if got := mustNew(t).Name(); got != "RiskLoc" {
		t.Errorf("Name() = %q", got)
	}
}

// TestAccumulateOverflowKeepsGroupsApart is the regression test for wrapped
// group keys on RiskLoc's map path: five attributes of 8000 elements put the
// full cuboid's product past 2^64, and the leaves at wrapped indexes 0 and
// 2^64 must stay separate groups that decode back to their combinations.
func TestAccumulateOverflowKeepsGroupsApart(t *testing.T) {
	attrs := make([]kpi.Attribute, 5)
	for a := range attrs {
		vals := make([]string, 8000)
		for i := range vals {
			vals[i] = fmt.Sprintf("e%d", i)
		}
		attrs[a] = kpi.Attribute{Name: fmt.Sprintf("a%d", a), Values: vals}
	}
	// 2^64 in radix 8000 is (4503, 4797, 151, 5693, 7616).
	low, high := kpi.Combination{0, 0, 0, 0, 0}, kpi.Combination{4503, 4797, 151, 5693, 7616}
	snap, err := kpi.NewSnapshot(kpi.MustSchema(attrs...), []kpi.Leaf{
		{Combo: high, Actual: 100, Forecast: 100},
		{Combo: low, Actual: 10, Forecast: 100, Anomalous: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ix := snap.Indexer(kpi.Cuboid{0, 1, 2, 3, 4})
	if ix.Size() >= 0 || ix.Index(low) != ix.Index(high) {
		t.Fatalf("premise: size %d, wrapped indexes %d and %d", ix.Size(), ix.Index(low), ix.Index(high))
	}
	p := partition{aw: []float64{0, 2}, nw: []float64{3, 0}, delta: []float64{0, 90}}
	got := accumulate(snap, ix, &p, make([]bool, 2))
	if len(got) != 2 {
		t.Fatalf("accumulate merged colliding groups: %+v", got)
	}
	probe := make(kpi.Combination, 5)
	for i, want := range []struct {
		combo      kpi.Combination
		aw, nw, dl float64
	}{{low, 2, 0, 90}, {high, 0, 3, 0}} {
		snap.DecodeGroup(ix, got[i].group, probe)
		if !probe.Equal(want.combo) || got[i].aw != want.aw || got[i].nw != want.nw || got[i].delta != want.dl {
			t.Fatalf("group %d: %v %+v, want %v aw %v nw %v delta %v",
				i, probe, got[i], want.combo, want.aw, want.nw, want.dl)
		}
	}
}
