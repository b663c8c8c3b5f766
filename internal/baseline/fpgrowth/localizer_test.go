package fpgrowth

import (
	"testing"

	"repro/internal/kpi"
)

func testSchema4() *kpi.Schema {
	return kpi.MustSchema(
		kpi.Attribute{Name: "A", Values: []string{"a1", "a2", "a3"}},
		kpi.Attribute{Name: "B", Values: []string{"b1", "b2"}},
		kpi.Attribute{Name: "C", Values: []string{"c1", "c2"}},
		kpi.Attribute{Name: "D", Values: []string{"d1", "d2"}},
	)
}

func denseSnapshot(t *testing.T, s *kpi.Schema, raps ...kpi.Combination) *kpi.Snapshot {
	t.Helper()
	var leaves []kpi.Leaf
	n := s.NumAttributes()
	combo := make(kpi.Combination, n)
	var rec func(depth int)
	rec = func(depth int) {
		if depth == n {
			c := combo.Clone()
			anom := false
			for _, r := range raps {
				if r.Matches(c) {
					anom = true
					break
				}
			}
			leaves = append(leaves, kpi.Leaf{Combo: c, Actual: 100, Forecast: 100, Anomalous: anom})
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

func TestLocalizeFindsInjectedRAPs(t *testing.T) {
	s := testSchema4()
	raps := []kpi.Combination{
		kpi.MustParseCombination(s, "(a1, *, *, *)"),
		kpi.MustParseCombination(s, "(a2, b2, *, *)"),
	}
	snap := denseSnapshot(t, s, raps...)
	l, err := New(DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := l.Localize(snap, 20)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	found := make(map[string]bool)
	for _, p := range res.Patterns {
		found[p.Combo.Format(s)] = true
	}
	for _, r := range raps {
		if !found[r.Format(s)] {
			t.Errorf("RAP %s not found in:\n%s", r.Format(s), res.Format(s))
		}
	}
	// The dominant RAP has maximal support and ranks first.
	if !res.Patterns[0].Combo.Equal(raps[0]) {
		t.Errorf("top pattern = %s, want (a1, *, *, *)", res.Patterns[0].Combo.Format(s))
	}
}

func TestLocalizeRanksExactRAPAboveDescendants(t *testing.T) {
	s := testSchema4()
	rap := kpi.MustParseCombination(s, "(a1, *, *, *)")
	snap := denseSnapshot(t, s, rap)
	l, _ := New(DefaultConfig())
	res, err := l.Localize(snap, 10)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(res.Patterns) == 0 || !res.Patterns[0].Combo.Equal(rap) {
		t.Fatalf("top pattern = %s, want (a1, *, *, *)", res.Format(s))
	}
	// Descendants may appear (no parent/child reasoning in association
	// rules) but always below the exact RAP, which has maximal support.
	for _, p := range res.Patterns[1:] {
		if p.Score > res.Patterns[0].Score {
			t.Errorf("pattern %s outranks the exact RAP", p.Combo.Format(s))
		}
	}
}

func TestLocalizeNoAnomalies(t *testing.T) {
	s := testSchema4()
	snap := denseSnapshot(t, s)
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
	s := testSchema4()
	snap := denseSnapshot(t, s)
	if _, err := l.Localize(snap, 0); err == nil {
		t.Error("k = 0 accepted")
	}
	for _, cfg := range []Config{
		{MinSupportRatio: 0, MinConfidence: 0.8},
		{MinSupportRatio: 1.5, MinConfidence: 0.8},
		{MinSupportRatio: 0.05, MinConfidence: 0},
		{MinSupportRatio: 0.05, MinConfidence: 1.5},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
}

func TestItemEncoding(t *testing.T) {
	for attr := 0; attr < 40; attr++ {
		for _, code := range []int32{0, 1, 31, 4095} {
			it := encodeItem(attr, code)
			a, c := decodeItem(it)
			if a != attr || c != code {
				t.Fatalf("encode/decode(%d, %d) = (%d, %d)", attr, code, a, c)
			}
		}
	}
}

func TestLocalizeRespectsK(t *testing.T) {
	s := testSchema4()
	raps := []kpi.Combination{
		kpi.MustParseCombination(s, "(a1, *, *, *)"),
		kpi.MustParseCombination(s, "(a2, *, *, *)"),
	}
	snap := denseSnapshot(t, s, raps...)
	l, _ := New(DefaultConfig())
	res, err := l.Localize(snap, 1)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(res.Patterns) != 1 {
		t.Errorf("k = 1 returned %d patterns", len(res.Patterns))
	}
}

func TestLocalizerName(t *testing.T) {
	l, _ := New(DefaultConfig())
	if l.Name() != "FP-growth" {
		t.Errorf("Name = %q", l.Name())
	}
}
