package squeeze

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/kpi"
	"repro/internal/localize"
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
		n, gps := l.locateInCuboid(&groups, u, 0, &sc)
		return combos(groups.ix, groups.indexes(sc.order[:n])), gps
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

// localizeAt runs Localize with GOMAXPROCS set to procs and renders the
// patterns with %.17g scores.
func localizeAt(t *testing.T, procs int, snap *kpi.Snapshot) string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	l, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Localize(snap, 50)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, p := range res.Patterns {
		fmt.Fprintf(&b, "%s %.17g\n", p.Combo.Format(snap.Schema), p.Score)
	}
	return b.String()
}

// TestSqueezeParallelMatchesSequential checks the cuboid search returns
// the same patterns and bit-identical scores on one core and on four: the
// per-cuboid results fold in cuboid order whatever order the workers
// finish in.
func TestSqueezeParallelMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		snap := fuzzSnapshot(t, seed, 1+int(seed%5), int(seed%9), seed%10 == 0)
		want := localizeAt(t, 1, snap)
		for run := 0; run < 3; run++ {
			if got := localizeAt(t, 4, snap); got != want {
				t.Fatalf("seed %d: GOMAXPROCS 4 returned\n%s\nGOMAXPROCS 1 returned\n%s", seed, got, want)
			}
		}
	}
}

// TestSqueezeWorkerPanic checks a panic inside a cuboid worker goroutine
// is rethrown on the calling goroutine, where SafeLocalize turns it into
// the call's error instead of killing the process. The snapshot is
// poisoned via a struct literal (bypassing NewSnapshot validation) with an
// element code outside its attribute's cardinality, so grouping any cuboid
// over that attribute indexes past the cuboid's domain.
func TestSqueezeWorkerPanic(t *testing.T) {
	s := testSchema()
	snap := &kpi.Snapshot{Schema: s, Leaves: []kpi.Leaf{
		{Combo: kpi.Combination{0, 0, 0}, Actual: 10, Forecast: 100, Anomalous: true},
		{Combo: kpi.Combination{1, 9, 1}, Actual: 100, Forecast: 100}, // code 9 out of range
	}}
	l, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			res, err := localize.SafeLocalize(context.Background(), l, snap, 3)
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("GOMAXPROCS %d: error %v, want the worker's panic", procs, err)
			}
			if procs > 1 && !strings.Contains(err.Error(), "worker") {
				t.Errorf("GOMAXPROCS %d: error %q does not come from a worker goroutine", procs, err)
			}
			if len(res.Patterns) != 0 {
				t.Errorf("GOMAXPROCS %d: panicked run returned patterns", procs)
			}
		}()
	}
}

// TestLocateInCuboidBitmapWordEdges holds locateInCuboid to the reference
// search on universes of 63, 64, 65 and 130 leaves, where the selection
// bitmap ends just before, on and past a word edge. Groups a0–a2 take
// every third leaf, so each later group's leaves interleave with the
// earlier ones'; a3 and a4 hold leaves in the upper half only. Cluster 0
// ranks a3 before a0, so its touched words grow downward; cluster 1 ranks
// a1 before a4, so they grow upward. The two clusters leave gaps in each
// other's universes, and the bitmap must be all zeros after every call.
func TestLocateInCuboidBitmapWordEdges(t *testing.T) {
	for _, n := range []int{63, 64, 65, 130} {
		schema := fuzzSchema([]int{5, n})
		r := rand.New(rand.NewSource(int64(n)))
		leaves := make([]kpi.Leaf, n)
		var clusters [2]cluster
		for i := range leaves {
			g := int32(i % 3)
			if i >= n/2 && i%5 < 2 {
				g = 3 + int32(i%5)
			}
			f := 50 + 50*r.Float64()
			leaf := kpi.Leaf{Combo: kpi.Combination{g, int32(i)}, Actual: f * (1 + 0.05*r.NormFloat64()), Forecast: f}
			switch {
			case g == 3 || (g == 0 && i%2 == 0):
				leaf.Actual, leaf.Anomalous = f*0.5, true
				clusters[0].leafIdx = append(clusters[0].leafIdx, i)
			case (g == 1 && i%4 != 0) || (g == 4 && i%3 != 0):
				leaf.Actual, leaf.Anomalous = f*0.1, true
				clusters[1].leafIdx = append(clusters[1].leafIdx, i)
			}
			leaves[i] = leaf
		}
		snap, err := kpi.NewSnapshot(schema, leaves)
		if err != nil {
			t.Fatal(err)
		}
		u := newUniverse(snap, clusters[:])
		var (
			groups cuboidGroups
			sc     prefixScratch
		)
		if !groups.build(snap, kpi.Cuboid{0}) {
			t.Fatal("cuboid {A} not searchable")
		}
		for _, maxPrefix := range []int{1, 2, 4} {
			cfg := DefaultConfig()
			cfg.MaxPrefix = maxPrefix
			l, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for c, cl := range clusters {
				got, gps := l.locateInCuboid(&groups, u, c, &sc)
				for w, word := range sc.sel {
					if word != 0 {
						t.Fatalf("n=%d cluster %d: bitmap word %d = %#x after the call, want 0", n, c, w, word)
					}
				}
				var univ []int
				for i, role := range u.role {
					if role == normalLeaf || role == int32(c) {
						univ = append(univ, i)
					}
				}
				want, wantGPS := l.referenceLocateInCuboid(snap, kpi.Cuboid{0}, cl, univ)
				set := combos(groups.ix, groups.indexes(sc.order[:got]))
				if len(set) != len(want) || math.Float64bits(gps) != math.Float64bits(wantGPS) {
					t.Fatalf("n=%d MaxPrefix %d cluster %d: %v gps %.17g, reference %v gps %.17g", n, maxPrefix, c, set, gps, want, wantGPS)
				}
				for j := range set {
					if !set[j].Equal(want[j]) {
						t.Fatalf("n=%d MaxPrefix %d cluster %d: set %v, reference %v", n, maxPrefix, c, set, want)
					}
				}
			}
		}
	}
}
