package squeeze

import (
	"fmt"
	"math"
	"math/rand"
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
// reduced by the paired magnitude (same magnitude under one RAP — the
// vertical assumption Squeeze relies on).
func injectedSnapshot(t *testing.T, s *kpi.Schema, raps []kpi.Combination, magnitudes []float64) *kpi.Snapshot {
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

func TestClusterSeparatesDistinctMagnitudes(t *testing.T) {
	scores := []float64{0.50, 0.51, 0.52, 0.90, 0.91, 0.89}
	idx := []int{0, 1, 2, 3, 4, 5}
	clusters := clusterByDeviation(scores, idx, 0.05)
	if len(clusters) != 2 {
		t.Fatalf("got %d clusters, want 2", len(clusters))
	}
	for _, c := range clusters {
		if len(c.leafIdx) != 3 {
			t.Errorf("cluster size %d, want 3", len(c.leafIdx))
		}
	}
}

func TestClusterMergesCloseMagnitudes(t *testing.T) {
	scores := []float64{0.50, 0.52, 0.54, 0.56, 0.58}
	idx := []int{0, 1, 2, 3, 4}
	clusters := clusterByDeviation(scores, idx, 0.05)
	if len(clusters) != 1 {
		t.Fatalf("got %d clusters, want 1", len(clusters))
	}
	if math.Abs(clusters[0].center-0.54) > 1e-9 {
		t.Errorf("center = %v, want 0.54", clusters[0].center)
	}
}

func TestClusterEmptyAndDegenerate(t *testing.T) {
	if got := clusterByDeviation(nil, nil, 0.05); got != nil {
		t.Errorf("empty input produced %v", got)
	}
	got := clusterByDeviation([]float64{0.3}, []int{7}, 0)
	if len(got) != 1 || got[0].leafIdx[0] != 7 {
		t.Errorf("single score: %+v", got)
	}
}

func TestLocalizeSingleRAPVerticalAssumption(t *testing.T) {
	s := testSchema()
	rap := kpi.MustParseCombination(s, "(a1, *, *)")
	snap := injectedSnapshot(t, s, []kpi.Combination{rap}, []float64{0.6})
	l, err := New(DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := l.Localize(snap, 3)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(res.Patterns) == 0 || !res.Patterns[0].Combo.Equal(rap) {
		t.Fatalf("got %s, want (a1, *, *)", res.Format(s))
	}
	if res.Patterns[0].Score < 0.9 {
		t.Errorf("GPS of exact RAP = %v, want near 1", res.Patterns[0].Score)
	}
}

func TestLocalizeTwoFailuresDifferentMagnitudes(t *testing.T) {
	// Horizontal assumption: two failures with clearly different
	// magnitudes land in different clusters and are both localized.
	s := testSchema()
	raps := []kpi.Combination{
		kpi.MustParseCombination(s, "(a2, *, *)"),
		kpi.MustParseCombination(s, "(*, b3, *)"),
	}
	snap := injectedSnapshot(t, s, raps, []float64{0.3, 0.8})
	l, _ := New(DefaultConfig())
	res, err := l.Localize(snap, 5)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	found := map[string]bool{}
	for _, p := range res.Patterns {
		found[p.Combo.Format(s)] = true
	}
	for _, r := range raps {
		if !found[r.Format(s)] {
			t.Errorf("RAP %s missing from %s", r.Format(s), res.Format(s))
		}
	}
}

func TestLocalizeMultiElementSameCuboid(t *testing.T) {
	// Two elements of the same attribute failing with the same
	// magnitude: one cluster, candidate set of size 2 in cuboid {A}.
	s := testSchema()
	raps := []kpi.Combination{
		kpi.MustParseCombination(s, "(a1, *, *)"),
		kpi.MustParseCombination(s, "(a3, *, *)"),
	}
	snap := injectedSnapshot(t, s, raps, []float64{0.5, 0.5})
	l, _ := New(DefaultConfig())
	res, err := l.Localize(snap, 5)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	found := map[string]bool{}
	for _, p := range res.Patterns {
		found[p.Combo.Format(s)] = true
	}
	if !found["(a1, *, *)"] || !found["(a3, *, *)"] {
		t.Errorf("same-cuboid RAPs not both found: %s", res.Format(s))
	}
}

func TestLocalizeDegradesOnRandomMagnitudes(t *testing.T) {
	// RAPMD-style injection: per-leaf random deviation in [0.1, 0.9]
	// violates the vertical assumption; clustering shatters and results
	// degrade (this is the paper's Fig. 8(b) observation). We only
	// assert that the method runs and does not crash — and that the
	// exact RAP is NOT reliably the top result across seeds.
	s := testSchema()
	rap := kpi.MustParseCombination(s, "(a1, *, *)")
	r := rand.New(rand.NewSource(5))
	topHits := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		var leaves []kpi.Leaf
		for a := int32(0); a < 4; a++ {
			for b := int32(0); b < 3; b++ {
				for c := int32(0); c < 2; c++ {
					combo := kpi.Combination{a, b, c}
					leaf := kpi.Leaf{Combo: combo, Actual: 100, Forecast: 100}
					if rap.Matches(combo) {
						dev := 0.1 + 0.8*r.Float64()
						leaf.Actual = 100 * (1 - dev)
						leaf.Anomalous = true
					}
					leaves = append(leaves, leaf)
				}
			}
		}
		snap, err := kpi.NewSnapshot(s, leaves)
		if err != nil {
			t.Fatalf("NewSnapshot: %v", err)
		}
		l, _ := New(DefaultConfig())
		res, err := l.Localize(snap, 3)
		if err != nil {
			t.Fatalf("Localize: %v", err)
		}
		if len(res.Patterns) > 0 && res.Patterns[0].Combo.Equal(rap) {
			topHits++
		}
	}
	t.Logf("top hits under random magnitudes: %d/%d", topHits, trials)
}

func TestLocalizeNoAnomalies(t *testing.T) {
	s := testSchema()
	snap := injectedSnapshot(t, s, nil, nil)
	l, _ := New(DefaultConfig())
	res, err := l.Localize(snap, 3)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(res.Patterns) != 0 {
		t.Errorf("clean snapshot produced %d patterns", len(res.Patterns))
	}
}

func TestLocalizeValidation(t *testing.T) {
	l, _ := New(DefaultConfig())
	if _, err := l.Localize(nil, 3); err == nil {
		t.Error("nil snapshot accepted")
	}
	s := testSchema()
	snap := injectedSnapshot(t, s, nil, nil)
	if _, err := l.Localize(snap, 0); err == nil {
		t.Error("k = 0 accepted")
	}
	for _, cfg := range []Config{
		{BinWidth: 0, MaxPrefix: 20},
		{BinWidth: 0.05, MaxPrefix: 0},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
	if l.Name() != "Squeeze" {
		t.Errorf("Name = %q", l.Name())
	}
}

func TestDeviationScore(t *testing.T) {
	leaf := kpi.Leaf{Actual: 50, Forecast: 100}
	// 2 * (100 - 50) / 150 = 2/3.
	if got := deviationScore(leaf, 1e-9); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("deviationScore = %v, want 2/3", got)
	}
	zero := kpi.Leaf{Actual: 0, Forecast: 0}
	if got := deviationScore(zero, 1e-9); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("deviationScore(0,0) = %v", got)
	}
}

func TestLocateInCuboidSkipsUnrepresentableDomain(t *testing.T) {
	// 64 binary attributes: the full cuboid's 2^64 groups fit no int, so
	// the cuboid is skipped instead of sizing its dense slices from a
	// wrapped (formerly 0) domain size.
	attrs := make([]kpi.Attribute, 64)
	all := make(kpi.Cuboid, len(attrs))
	for i := range attrs {
		attrs[i] = kpi.Attribute{Name: fmt.Sprintf("a%d", i), Values: []string{"0", "1"}}
		all[i] = i
	}
	s := kpi.MustSchema(attrs...)
	leaves := make([]kpi.Leaf, 2)
	for i := range leaves {
		c := make(kpi.Combination, len(attrs))
		c[0] = int32(i)
		leaves[i] = kpi.Leaf{Combo: c, Actual: float64(10 * i), Forecast: 100, Anomalous: i == 0}
	}
	snap, err := kpi.NewSnapshot(s, leaves)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := New(DefaultConfig())
	set, gps := l.locateInCuboid(snap, all, cluster{leafIdx: []int{0}}, []int{0, 1})
	if set != nil || !math.IsInf(gps, -1) {
		t.Errorf("locateInCuboid over a 2^64 domain = %v, %v; want it skipped", set, gps)
	}
}

func TestLocateInCuboidPicksExactSet(t *testing.T) {
	s := testSchema()
	rap := kpi.MustParseCombination(s, "(a1, *, *)")
	snap := injectedSnapshot(t, s, []kpi.Combination{rap}, []float64{0.5})
	l, _ := New(DefaultConfig())

	var clusterLeaves []int
	evalIdx := make([]int, snap.Len())
	for i := range evalIdx {
		evalIdx[i] = i
		if snap.Leaves[i].Anomalous {
			clusterLeaves = append(clusterLeaves, i)
		}
	}
	set, gps := l.locateInCuboid(snap, kpi.Cuboid{0}, cluster{leafIdx: clusterLeaves}, evalIdx)
	if len(set) != 1 || !set[0].Equal(rap) {
		t.Fatalf("locateInCuboid = %v (gps %v), want the RAP", set, gps)
	}
	if gps < 0.95 {
		t.Errorf("GPS(exact set) = %v, want near 1", gps)
	}
	// The wrong cuboid {B} cannot reach the exact set's score.
	_, gpsB := l.locateInCuboid(snap, kpi.Cuboid{1}, cluster{leafIdx: clusterLeaves}, evalIdx)
	if gpsB >= gps {
		t.Errorf("GPS in cuboid {B} = %v >= GPS in {A} = %v", gpsB, gps)
	}
}
