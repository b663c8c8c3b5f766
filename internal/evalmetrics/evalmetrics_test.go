package evalmetrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/kpi"
)

func combos(texts ...string) []kpi.Combination {
	s := kpi.MustSchema(
		kpi.Attribute{Name: "A", Values: []string{"a1", "a2", "a3"}},
		kpi.Attribute{Name: "B", Values: []string{"b1", "b2", "b3"}},
	)
	var out []kpi.Combination
	for _, t := range texts {
		out = append(out, kpi.MustParseCombination(s, t))
	}
	return out
}

func TestSetScorePerfect(t *testing.T) {
	var s SetScore
	truth := combos("(a1, *)", "(a2, b2)")
	s.Add(truth, truth)
	if s.TP != 2 || s.FP != 0 || s.FN != 0 {
		t.Fatalf("SetScore = %+v", s)
	}
	if s.F1() != 1 || s.Precision() != 1 || s.Recall() != 1 {
		t.Errorf("perfect prediction scores: P=%v R=%v F1=%v", s.Precision(), s.Recall(), s.F1())
	}
}

func TestSetScorePartial(t *testing.T) {
	var s SetScore
	s.Add(combos("(a1, *)", "(a3, *)"), combos("(a1, *)", "(a2, b2)"))
	if s.TP != 1 || s.FP != 1 || s.FN != 1 {
		t.Fatalf("SetScore = %+v", s)
	}
	if math.Abs(s.F1()-0.5) > 1e-12 {
		t.Errorf("F1 = %v, want 0.5", s.F1())
	}
}

func TestSetScoreNoDoubleMatching(t *testing.T) {
	var s SetScore
	// Duplicate predictions only match one truth entry.
	s.Add(combos("(a1, *)", "(a1, *)"), combos("(a1, *)"))
	if s.TP != 1 || s.FP != 1 || s.FN != 0 {
		t.Fatalf("SetScore = %+v", s)
	}
}

func TestSetScoreEmptyCases(t *testing.T) {
	var s SetScore
	s.Add(nil, nil)
	if s.F1() != 0 || s.Precision() != 0 || s.Recall() != 0 {
		t.Errorf("empty score: %+v", s)
	}
	s.Add(nil, combos("(a1, *)"))
	if s.FN != 1 {
		t.Errorf("missing prediction not counted as FN: %+v", s)
	}
}

func TestSetScoreAccumulatesAcrossCases(t *testing.T) {
	var s SetScore
	s.Add(combos("(a1, *)"), combos("(a1, *)"))
	s.Add(combos("(a2, *)"), combos("(a3, *)"))
	if s.TP != 1 || s.FP != 1 || s.FN != 1 {
		t.Fatalf("accumulated = %+v", s)
	}
}

func TestRCAtKPaperSemantics(t *testing.T) {
	m, err := NewRCAtK(3)
	if err != nil {
		t.Fatalf("NewRCAtK: %v", err)
	}
	// Case 1: 2 truths, top-3 catches one.
	m.Add(combos("(a1, *)", "(a3, *)", "(a2, b2)"), combos("(a1, *)", "(a2, *)"))
	// Case 2: 1 truth, caught.
	m.Add(combos("(a2, *)"), combos("(a2, *)"))
	// hits = 2, total truths = 3.
	if got := m.Value(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("RC@3 = %v, want 2/3", got)
	}
}

func TestRCAtKTruncatesPredictions(t *testing.T) {
	m, _ := NewRCAtK(1)
	m.Add(combos("(a3, *)", "(a1, *)"), combos("(a1, *)"))
	if got := m.Value(); got != 0 {
		t.Errorf("RC@1 = %v, want 0 (truth at rank 2)", got)
	}
}

func TestRCAtKValidation(t *testing.T) {
	if _, err := NewRCAtK(0); err == nil {
		t.Error("k = 0 accepted")
	}
	m, _ := NewRCAtK(5)
	if m.Value() != 0 {
		t.Error("empty metric not 0")
	}
}

func TestRCAtKMonotoneInK(t *testing.T) {
	// RC@k is non-decreasing in k for the same prediction stream.
	f := func(seed int64) bool {
		pred := combos("(a1, *)", "(a2, *)", "(a3, *)")
		truth := combos("(a2, *)", "(a3, *)")
		var prev float64
		for k := 1; k <= 3; k++ {
			m, err := NewRCAtK(k)
			if err != nil {
				return false
			}
			m.Add(pred, truth)
			if m.Value() < prev {
				return false
			}
			prev = m.Value()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func TestTimingStatistics(t *testing.T) {
	var tm Timing
	if tm.Mean() != 0 || tm.Median() != 0 || tm.N() != 0 {
		t.Error("empty timing not zero")
	}
	tm.Add(10 * time.Millisecond)
	tm.Add(30 * time.Millisecond)
	tm.Add(20 * time.Millisecond)
	if got := tm.Mean(); got != 20*time.Millisecond {
		t.Errorf("Mean = %v", got)
	}
	if got := tm.Median(); got != 20*time.Millisecond {
		t.Errorf("Median = %v", got)
	}
	tm.Add(40 * time.Millisecond)
	if got := tm.Median(); got != 25*time.Millisecond {
		t.Errorf("even Median = %v", got)
	}
	if tm.N() != 4 {
		t.Errorf("N = %d", tm.N())
	}
}

func TestBootstrapInterval(t *testing.T) {
	m, _ := NewRCAtK(3)
	// 60 truths, 45 hits -> RC 0.75.
	for i := 0; i < 60; i++ {
		truth := combos("(a1, *)")
		if i%4 == 0 {
			m.Add(nil, truth) // miss
		} else {
			m.Add(truth, truth) // hit
		}
	}
	ci, err := m.Bootstrap(500, 0.95, 1)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if math.Abs(ci.Point-0.75) > 1e-9 {
		t.Errorf("Point = %v, want 0.75", ci.Point)
	}
	if ci.Lo > ci.Point || ci.Hi < ci.Point {
		t.Errorf("interval [%v, %v] excludes the point %v", ci.Lo, ci.Hi, ci.Point)
	}
	// Sanity width: binomial(60, 0.75) has std ~0.056; the 95% interval
	// should be within +-3 std of the point and not degenerate.
	if ci.Hi-ci.Lo <= 0 || ci.Hi-ci.Lo > 0.4 {
		t.Errorf("interval width %v implausible", ci.Hi-ci.Lo)
	}
	if ci.NumTrue != 60 || ci.Level != 0.95 {
		t.Errorf("metadata wrong: %+v", ci)
	}
	// Deterministic per seed.
	ci2, _ := m.Bootstrap(500, 0.95, 1)
	if ci != ci2 {
		t.Error("bootstrap not deterministic for a fixed seed")
	}
}

func TestBootstrapValidation(t *testing.T) {
	m, _ := NewRCAtK(3)
	if _, err := m.Bootstrap(500, 0.95, 1); err == nil {
		t.Error("empty metric accepted")
	}
	m.Add(combos("(a1, *)"), combos("(a1, *)"))
	if _, err := m.Bootstrap(5, 0.95, 1); err == nil {
		t.Error("too few resamples accepted")
	}
	if _, err := m.Bootstrap(100, 1.5, 1); err == nil {
		t.Error("bad level accepted")
	}
}

// Median returns the median runtime, or 0 with no samples.
func (t *Timing) Median() time.Duration {
	if len(t.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), t.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

// N returns the number of samples.
func (t *Timing) N() int { return len(t.samples) }
