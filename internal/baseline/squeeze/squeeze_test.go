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
	// the cuboid is skipped instead of numbering its groups from a
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
	var groups cuboidGroups
	if groups.build(snap, all) {
		t.Errorf("cuboidGroups.build over a 2^64 domain succeeded; want the cuboid skipped")
	}
}

func TestLocateInCuboidPicksExactSet(t *testing.T) {
	s := testSchema()
	rap := kpi.MustParseCombination(s, "(a1, *, *)")
	snap := injectedSnapshot(t, s, []kpi.Combination{rap}, []float64{0.5})
	l, _ := New(DefaultConfig())

	var clusterLeaves []int
	for i := range snap.Leaves {
		if snap.Leaves[i].Anomalous {
			clusterLeaves = append(clusterLeaves, i)
		}
	}
	u := newUniverse(snap, []cluster{{leafIdx: clusterLeaves}})
	locate := func(cuboid kpi.Cuboid) ([]kpi.Combination, float64) {
		var (
			groups cuboidGroups
			sc     prefixScratch
		)
		if !groups.build(snap, cuboid) {
			t.Fatalf("cuboid %v not searchable", cuboid)
		}
		n, gps := l.locateInCuboid(snap, &groups, u, 0, &sc)
		return groups.combos(sc.order[:n]), gps
	}
	set, gps := locate(kpi.Cuboid{0})
	if len(set) != 1 || !set[0].Equal(rap) {
		t.Fatalf("locateInCuboid = %v (gps %v), want the RAP", set, gps)
	}
	if gps < 0.95 {
		t.Errorf("GPS(exact set) = %v, want near 1", gps)
	}
	// The wrong cuboid {B} cannot reach the exact set's score.
	_, gpsB := locate(kpi.Cuboid{1})
	if gpsB >= gps {
		t.Errorf("GPS in cuboid {B} = %v >= GPS in {A} = %v", gpsB, gps)
	}
}

func TestClusterSkipsEmptyBinsAndNonFiniteScores(t *testing.T) {
	// 2e10 sits 4e11 bins above the rest: it forms its own cluster
	// without a histogram spanning the gap. NaN and ±Inf join none.
	scores := []float64{0.5, 2e10, math.NaN(), 0.52, math.Inf(1), math.Inf(-1)}
	clusters := clusterByDeviation(scores, []int{0, 1, 2, 3, 4, 5}, 0.05)
	if len(clusters) != 2 {
		t.Fatalf("got %d clusters, want 2: %+v", len(clusters), clusters)
	}
	if got := clusters[0].leafIdx; len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("first cluster = %v, want leaves [0 3]", got)
	}
	if got := clusters[1].leafIdx; len(got) != 1 || got[0] != 1 {
		t.Errorf("second cluster = %v, want leaf [1]", got)
	}
	if got := clusterByDeviation([]float64{math.NaN()}, []int{0}, 0.05); got != nil {
		t.Errorf("only non-finite scores produced %+v", got)
	}
}

func TestLocalizeZeroDenominatorLeaf(t *testing.T) {
	// forecast + actual ≈ 0 makes the deviation score enormous (5/-5),
	// infinite (±MaxFloat64) or NaN (actual = forecast = -Eps/2). Each
	// used to size the clustering histogram from the score range.
	s := kpi.MustSchema(kpi.Attribute{Name: "A", Values: []string{"a1", "a2", "a3"}})
	for _, tc := range []struct {
		name             string
		actual, forecast float64
		clustered        bool
	}{
		{"huge", -5, 5, true},
		{"inf", -math.MaxFloat64, math.MaxFloat64, false},
		{"nan", -5e-10, -5e-10, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			snap, err := kpi.NewSnapshot(s, []kpi.Leaf{
				{Combo: kpi.Combination{0}, Actual: tc.actual, Forecast: tc.forecast, Anomalous: true},
				{Combo: kpi.Combination{1}, Actual: 40, Forecast: 100, Anomalous: true},
				{Combo: kpi.Combination{2}, Actual: 100, Forecast: 100},
			})
			if err != nil {
				t.Fatal(err)
			}
			l, _ := New(DefaultConfig())
			res, err := l.Localize(snap, 3)
			if err != nil {
				t.Fatalf("Localize: %v", err)
			}
			found := map[string]bool{}
			for _, p := range res.Patterns {
				found[p.Combo.Format(s)] = true
			}
			if !found["(a2)"] {
				t.Errorf("finite failing leaf not localized: %s", res.Format(s))
			}
			if found["(a1)"] != tc.clustered {
				t.Errorf("zero-denominator leaf reported = %v, want %v: %s", found["(a1)"], tc.clustered, res.Format(s))
			}
			if tc.clustered {
				if want := l.referenceLocalize(snap, 3); res.Format(s) != want.Format(s) {
					t.Errorf("Localize = %s, reference %s", res.Format(s), want.Format(s))
				}
			}
		})
	}
}
