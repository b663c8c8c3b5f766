package idice

import (
	"math"
	"testing"

	"repro/internal/kpi"
)

func testSchema() *kpi.Schema {
	return kpi.MustSchema(
		kpi.Attribute{Name: "A", Values: []string{"a1", "a2", "a3"}},
		kpi.Attribute{Name: "B", Values: []string{"b1", "b2"}},
		kpi.Attribute{Name: "C", Values: []string{"c1", "c2"}},
	)
}

// denseSnapshot labels leaves under any rap anomalous with a 60% value
// drop.
func denseSnapshot(t *testing.T, s *kpi.Schema, raps ...kpi.Combination) *kpi.Snapshot {
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
					leaf.Actual = 40
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

// scanIsolationPower is the definitional isolation power: one pass over D
// sorting every leaf into the combination's scope or out of it. It is the
// oracle the count-based isolationPower is held to.
func scanIsolationPower(s *kpi.Snapshot, combo kpi.Combination) float64 {
	var inTotal, inAnom, outTotal, outAnom int
	for _, leaf := range s.Leaves {
		if combo.Matches(leaf.Combo) {
			inTotal++
			if leaf.Anomalous {
				inAnom++
			}
		} else {
			outTotal++
			if leaf.Anomalous {
				outAnom++
			}
		}
	}
	total := inTotal + outTotal
	if total == 0 || inTotal == 0 {
		return 0
	}
	hd := binaryEntropy(float64(inAnom+outAnom) / float64(total))
	hin := binaryEntropy(float64(inAnom) / float64(inTotal))
	var hout float64
	if outTotal > 0 {
		hout = binaryEntropy(float64(outAnom) / float64(outTotal))
	}
	return hd - float64(inTotal)/float64(total)*hin - float64(outTotal)/float64(total)*hout
}

// comboIsolationPower scores one combination the way Localize does, from
// its support counts and the dataset's, and checks the bits against the
// scanning oracle.
func comboIsolationPower(t *testing.T, s *kpi.Snapshot, combo kpi.Combination) float64 {
	t.Helper()
	inTotal, inAnom := s.SupportCount(combo)
	ip := isolationPower(inTotal, inAnom, s.Len(), s.NumAnomalous())
	if want := scanIsolationPower(s, combo); math.Float64bits(ip) != math.Float64bits(want) {
		t.Errorf("IP(%v) = %v from counts, %v from a scan", combo, ip, want)
	}
	return ip
}

func TestIsolationPowerPeaksAtTrueRAP(t *testing.T) {
	s := testSchema()
	rap := kpi.MustParseCombination(s, "(a1, *, *)")
	snap := denseSnapshot(t, s, rap)

	ipRAP := comboIsolationPower(t, snap, rap)
	// The RAP isolates perfectly: IP equals the dataset entropy.
	if ipRAP <= 0 {
		t.Fatalf("IP(RAP) = %v, want > 0", ipRAP)
	}
	for _, other := range []string{"(a2, *, *)", "(*, b1, *)", "(a1, b1, *)"} {
		c := kpi.MustParseCombination(s, other)
		if ip := comboIsolationPower(t, snap, c); ip >= ipRAP {
			t.Errorf("IP(%s) = %v >= IP(RAP) = %v", other, ip, ipRAP)
		}
	}
}

func TestIsolationPowerEmptyScope(t *testing.T) {
	s := testSchema()
	snap := denseSnapshot(t, s)
	empty, err := kpi.NewSnapshot(s, nil)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	if got := comboIsolationPower(t, empty, kpi.NewRoot(3)); got != 0 {
		t.Errorf("IP on empty snapshot = %v", got)
	}
	// A combination matching nothing has zero isolation power.
	sparse, err := kpi.NewSnapshot(s, snap.Leaves[:4])
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	c := kpi.MustParseCombination(s, "(a3, b2, c2)")
	if got := comboIsolationPower(t, sparse, c); got != 0 {
		t.Errorf("IP of unmatched combination = %v, want 0", got)
	}
}

func TestLocalizeRanksTrueRAPFirst(t *testing.T) {
	s := testSchema()
	rap := kpi.MustParseCombination(s, "(a1, *, *)")
	snap := denseSnapshot(t, s, rap)
	l, err := New(DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := l.Localize(snap, 3)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(res.Patterns) == 0 || !res.Patterns[0].Combo.Equal(rap) {
		t.Fatalf("top pattern = %s, want (a1, *, *)", res.Format(s))
	}
}

func TestLocalizeImpactPruning(t *testing.T) {
	// A combination with tiny volume share is pruned even if anomalous.
	s := testSchema()
	var leaves []kpi.Leaf
	for a := int32(0); a < 3; a++ {
		for b := int32(0); b < 2; b++ {
			for c := int32(0); c < 2; c++ {
				leaf := kpi.Leaf{Combo: kpi.Combination{a, b, c}, Actual: 1000, Forecast: 1000}
				if a == 2 && b == 1 && c == 1 {
					// Negligible volume, fully anomalous.
					leaf.Actual, leaf.Forecast = 0.2, 1
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
	l, _ := New(Config{MinImpact: 0.01, MinChange: 0.05})
	res, err := l.Localize(snap, 5)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	tiny := kpi.MustParseCombination(s, "(a3, b2, c2)")
	for _, p := range res.Patterns {
		if p.Combo.Equal(tiny) {
			t.Errorf("low-impact combination survived pruning: %s", res.Format(s))
		}
	}
}

func TestLocalizeNoAnomalies(t *testing.T) {
	s := testSchema()
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
	snap := denseSnapshot(t, testSchema())
	if _, err := l.Localize(snap, -1); err == nil {
		t.Error("negative k accepted")
	}
	for _, cfg := range []Config{
		{MinImpact: -0.1, MinChange: 0.05},
		{MinImpact: 1, MinChange: 0.05},
		{MinImpact: 0.01, MinChange: -1},
		{MinImpact: 0.01, MinChange: 1},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) accepted invalid config", cfg)
		}
	}
}

func TestChangeDetection(t *testing.T) {
	l, _ := New(Config{MinImpact: 0, MinChange: 0.05})
	if l.changed(100, 100) {
		t.Error("no change flagged")
	}
	if !l.changed(90, 100) {
		t.Error("10% change not flagged")
	}
	if !l.changed(5, 0) {
		t.Error("change from zero forecast not flagged")
	}
	if l.changed(0, 0) {
		t.Error("0/0 flagged")
	}
}

func TestBinaryEntropyBounds(t *testing.T) {
	if got := binaryEntropy(0.5); math.Abs(got-math.Ln2) > 1e-12 {
		t.Errorf("H(0.5) = %v, want ln 2", got)
	}
	if binaryEntropy(0) != 0 || binaryEntropy(1) != 0 {
		t.Error("H at the extremes should be 0")
	}
}

func TestLocalizeKTruncation(t *testing.T) {
	s := testSchema()
	rap := kpi.MustParseCombination(s, "(a1, *, *)")
	snap := denseSnapshot(t, s, rap)
	l, _ := New(DefaultConfig())
	res, err := l.Localize(snap, 2)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(res.Patterns) > 2 {
		t.Errorf("k = 2 returned %d patterns", len(res.Patterns))
	}
	if l.Name() != "iDice" {
		t.Errorf("Name = %q", l.Name())
	}
}
