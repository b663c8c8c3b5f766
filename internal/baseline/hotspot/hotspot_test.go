package hotspot

import (
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

// rippleSnapshot injects the RAPs with the ripple effect HotSpot assumes:
// every descendant leaf of a RAP loses the same fraction of its forecast.
func rippleSnapshot(t *testing.T, s *kpi.Schema, raps []kpi.Combination, frac float64) *kpi.Snapshot {
	t.Helper()
	var leaves []kpi.Leaf
	n := s.NumAttributes()
	combo := make(kpi.Combination, n)
	var rec func(depth int)
	rec = func(depth int) {
		if depth == n {
			c := combo.Clone()
			leaf := kpi.Leaf{Combo: c, Actual: 100, Forecast: 100}
			for _, r := range raps {
				if r.Matches(c) {
					leaf.Actual = 100 * (1 - frac)
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

func TestLocalizeSingleElementRootCause(t *testing.T) {
	s := testSchema()
	rap := kpi.MustParseCombination(s, "(a2, *, *)")
	snap := rippleSnapshot(t, s, []kpi.Combination{rap}, 0.5)
	l, err := New(DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := l.Localize(snap, 3)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(res.Patterns) != 1 || !res.Patterns[0].Combo.Equal(rap) {
		t.Fatalf("got %s, want (a2, *, *)", res.Format(s))
	}
	if res.Patterns[0].Score < 0.95 {
		t.Errorf("ps = %v, want near 1", res.Patterns[0].Score)
	}
}

func TestLocalizeMultiElementSameCuboid(t *testing.T) {
	// HotSpot's single-cuboid assumption holds here: both RAPs live in
	// cuboid {A}.
	s := testSchema()
	raps := []kpi.Combination{
		kpi.MustParseCombination(s, "(a1, *, *)"),
		kpi.MustParseCombination(s, "(a4, *, *)"),
	}
	snap := rippleSnapshot(t, s, raps, 0.6)
	l, _ := New(DefaultConfig())
	res, err := l.Localize(snap, 5)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	found := map[string]bool{}
	for _, p := range res.Patterns {
		found[p.Combo.Format(s)] = true
	}
	if !found["(a1, *, *)"] || !found["(a4, *, *)"] {
		t.Errorf("same-cuboid set not recovered: %s", res.Format(s))
	}
}

func TestLocalizeTwoDimensionalRootCause(t *testing.T) {
	s := testSchema()
	rap := kpi.MustParseCombination(s, "(a1, b2, *)")
	snap := rippleSnapshot(t, s, []kpi.Combination{rap}, 0.7)
	l, _ := New(DefaultConfig())
	res, err := l.Localize(snap, 3)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(res.Patterns) == 0 || !res.Patterns[0].Combo.Equal(rap) {
		t.Fatalf("got %s, want (a1, b2, *)", res.Format(s))
	}
}

func TestLocalizeCleanSnapshot(t *testing.T) {
	s := testSchema()
	snap := rippleSnapshot(t, s, nil, 0)
	l, _ := New(DefaultConfig())
	res, err := l.Localize(snap, 3)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(res.Patterns) != 0 {
		t.Errorf("clean snapshot produced %s", res.Format(s))
	}
}

func TestLocalizeValidation(t *testing.T) {
	l, _ := New(DefaultConfig())
	if _, err := l.Localize(nil, 3); err == nil {
		t.Error("nil snapshot accepted")
	}
	s := testSchema()
	snap := rippleSnapshot(t, s, nil, 0)
	if _, err := l.Localize(snap, 0); err == nil {
		t.Error("k = 0 accepted")
	}
	for _, cfg := range []Config{
		{Iterations: 0, MaxSetSize: 5, MaxElements: 10, PT: 0.99, UCBConstant: 1},
		{Iterations: 10, MaxSetSize: 0, MaxElements: 10, PT: 0.99, UCBConstant: 1},
		{Iterations: 10, MaxSetSize: 5, MaxElements: 0, PT: 0.99, UCBConstant: 1},
		{Iterations: 10, MaxSetSize: 5, MaxElements: 10, PT: 0, UCBConstant: 1},
		{Iterations: 10, MaxSetSize: 5, MaxElements: 10, PT: 2, UCBConstant: 1},
		{Iterations: 10, MaxSetSize: 5, MaxElements: 10, PT: 0.99, UCBConstant: 0},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
	if l.Name() != "HotSpot" {
		t.Errorf("Name = %q", l.Name())
	}
}

func TestLocalizeDeterministicWithFixedSeed(t *testing.T) {
	s := testSchema()
	rap := kpi.MustParseCombination(s, "(a3, b1, *)")
	snap := rippleSnapshot(t, s, []kpi.Combination{rap}, 0.5)
	l, _ := New(DefaultConfig())
	a, err := l.Localize(snap, 3)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	b, err := l.Localize(snap, 3)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(a.Patterns) != len(b.Patterns) {
		t.Fatalf("nondeterministic result sizes: %d vs %d", len(a.Patterns), len(b.Patterns))
	}
	for i := range a.Patterns {
		if !a.Patterns[i].Combo.Equal(b.Patterns[i].Combo) {
			t.Fatalf("nondeterministic results at %d", i)
		}
	}
}

func TestPotentialScoreExactSetIsOne(t *testing.T) {
	s := testSchema()
	rap := kpi.MustParseCombination(s, "(a1, *, *)")
	snap := rippleSnapshot(t, s, []kpi.Combination{rap}, 0.5)
	r := newRun(snap)
	l, _ := New(DefaultConfig())
	elements := l.cuboidElements(r, kpi.Cuboid{0})
	if len(elements) == 0 {
		t.Fatal("no elements in cuboid {A}")
	}
	// Element 0 is the most deviating: the RAP itself.
	if !elements[0].combo.Equal(rap) {
		t.Fatalf("strongest element = %v, want the RAP", elements[0].combo)
	}
	bits := make([]bool, len(elements))
	bits[0] = true
	if ps := r.potentialScore(elements, bits); math.Abs(ps-1) > 1e-9 {
		t.Errorf("ps(exact set) = %v, want 1", ps)
	}
	// Empty set scores zero.
	empty := make([]bool, len(elements))
	if ps := r.potentialScore(elements, empty); ps != 0 {
		t.Errorf("ps(empty) = %v, want 0", ps)
	}
}

func TestMCTSEnumeratesSubsetsWithoutDuplicatePaths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tree := newMCTS(4, 2, math.Sqrt2, rng)
	seen := make(map[string]int)
	for i := 0; i < 60; i++ {
		bits := tree.selectAndExpand()
		key := ""
		for _, b := range bits {
			if b {
				key += "1"
			} else {
				key += "0"
			}
		}
		seen[key]++
		tree.backpropagate(rng.Float64())
	}
	// Subsets of size <= 2 over 4 elements: C(4,1)+C(4,2) = 10 non-empty
	// states (the root itself is never returned as a fresh expansion
	// forever, but revisits are fine). All states must be valid sizes.
	for key := range seen {
		ones := 0
		for _, ch := range key {
			if ch == '1' {
				ones++
			}
		}
		if ones > 2 {
			t.Errorf("state %s exceeds MaxSetSize", key)
		}
	}
}

// TestLocalizeDeterministicUnderScoreTies pins the bestChild regression:
// the ripple fixture gives every element under a RAP identical deviation,
// so the MCTS tree is full of exactly-tied UCB scores. Tie-breaking must
// come from element order, never map iteration order, or repeated runs
// consume the rollout rng differently and diverge.
func TestLocalizeDeterministicUnderScoreTies(t *testing.T) {
	s := testSchema()
	raps := []kpi.Combination{
		kpi.MustParseCombination(s, "(a1, *, *)"),
		kpi.MustParseCombination(s, "(*, b2, *)"),
	}
	// Equal fractional drop under both RAPs: the per-element deviations
	// tie pairwise across the whole lattice.
	snap := rippleSnapshot(t, s, raps, 0.5)
	l, _ := New(DefaultConfig())
	want, err := l.Localize(snap, 5)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	for run := 0; run < 50; run++ {
		got, err := l.Localize(snap, 5)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if len(got.Patterns) != len(want.Patterns) {
			t.Fatalf("run %d: %d patterns vs %d", run, len(got.Patterns), len(want.Patterns))
		}
		for i := range got.Patterns {
			if !got.Patterns[i].Combo.Equal(want.Patterns[i].Combo) || got.Patterns[i].Score != want.Patterns[i].Score {
				t.Fatalf("run %d: tied-score search diverged at %d", run, i)
			}
		}
	}
}
