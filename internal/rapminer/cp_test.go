package rapminer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/kpi"
)

// fig6Snapshot builds the Fig. 6 example: attributes A{a1,a2,a3}, B{b1,b2},
// C{c1,c2}, with (a1, *, *) as the RAP — every leaf under a1 anomalous.
func fig6Snapshot(t *testing.T) *kpi.Snapshot {
	t.Helper()
	s := kpi.MustSchema(
		kpi.Attribute{Name: "A", Values: []string{"a1", "a2", "a3"}},
		kpi.Attribute{Name: "B", Values: []string{"b1", "b2"}},
		kpi.Attribute{Name: "C", Values: []string{"c1", "c2"}},
	)
	var leaves []kpi.Leaf
	for a := int32(0); a < 3; a++ {
		for b := int32(0); b < 2; b++ {
			for c := int32(0); c < 2; c++ {
				leaves = append(leaves, kpi.Leaf{
					Combo:     kpi.Combination{a, b, c},
					Actual:    100,
					Forecast:  100,
					Anomalous: a == 0,
				})
			}
		}
	}
	snap, err := kpi.NewSnapshot(s, leaves)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	return snap
}

func TestClassificationPowerFig6(t *testing.T) {
	snap := fig6Snapshot(t)
	// Attribute A separates anomalous from normal perfectly: CP = 1.
	if got := ClassificationPower(snap, 0); math.Abs(got-1) > 1e-12 {
		t.Errorf("CP_A = %v, want 1", got)
	}
	// B and C split the anomalies evenly: no entropy reduction, CP = 0.
	for _, attr := range []int{1, 2} {
		if got := ClassificationPower(snap, attr); math.Abs(got) > 1e-12 {
			t.Errorf("CP of attribute %d = %v, want 0", attr, got)
		}
	}
}

func TestClassificationPowerHandComputed(t *testing.T) {
	// 4 leaves over A{a1,a2}, B{b1,b2}; anomalous: (a1,b1) and (a1,b2)
	// partially mixed so CP is strictly between 0 and 1.
	s := kpi.MustSchema(
		kpi.Attribute{Name: "A", Values: []string{"a1", "a2"}},
		kpi.Attribute{Name: "B", Values: []string{"b1", "b2"}},
	)
	snap, err := kpi.NewSnapshot(s, []kpi.Leaf{
		{Combo: kpi.Combination{0, 0}, Anomalous: true},
		{Combo: kpi.Combination{0, 1}, Anomalous: false},
		{Combo: kpi.Combination{1, 0}, Anomalous: false},
		{Combo: kpi.Combination{1, 1}, Anomalous: false},
	})
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	h := func(p float64) float64 {
		if p <= 0 || p >= 1 {
			return 0
		}
		return -(p*math.Log(p) + (1-p)*math.Log(1-p))
	}
	infoD := h(0.25)
	// Splitting by A: branch a1 has 1/2 anomalous, branch a2 has 0.
	infoA := 0.5 * h(0.5)
	want := (infoD - infoA) / infoD
	if got := ClassificationPower(snap, 0); math.Abs(got-want) > 1e-12 {
		t.Errorf("CP_A = %v, want %v", got, want)
	}
	// B splits symmetrically: same value by symmetry of this dataset.
	if got := ClassificationPower(snap, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("CP_B = %v, want %v", got, want)
	}
}

func TestClassificationPowerDegenerateLabels(t *testing.T) {
	snap := fig6Snapshot(t)
	// No anomalies.
	for i := range snap.Leaves {
		snap.Leaves[i].Anomalous = false
	}
	if got := ClassificationPower(snap, 0); got != 0 {
		t.Errorf("CP with no anomalies = %v, want 0", got)
	}
	// All anomalous.
	for i := range snap.Leaves {
		snap.Leaves[i].Anomalous = true
	}
	if got := ClassificationPower(snap, 0); got != 0 {
		t.Errorf("CP with all anomalous = %v, want 0", got)
	}
}

func TestClassificationPowerEmptySnapshot(t *testing.T) {
	s := kpi.MustSchema(kpi.Attribute{Name: "A", Values: []string{"a1"}})
	snap, err := kpi.NewSnapshot(s, nil)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	if got := ClassificationPower(snap, 0); got != 0 {
		t.Errorf("CP of empty snapshot = %v, want 0", got)
	}
}

func TestClassificationPowerBoundsQuick(t *testing.T) {
	// Information gain is non-negative and normalized gain is at most 1,
	// for arbitrary random labelings.
	s := kpi.MustSchema(
		kpi.Attribute{Name: "A", Values: []string{"a1", "a2", "a3"}},
		kpi.Attribute{Name: "B", Values: []string{"b1", "b2"}},
	)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var leaves []kpi.Leaf
		for a := int32(0); a < 3; a++ {
			for b := int32(0); b < 2; b++ {
				leaves = append(leaves, kpi.Leaf{
					Combo:     kpi.Combination{a, b},
					Anomalous: r.Intn(2) == 0,
				})
			}
		}
		snap, err := kpi.NewSnapshot(s, leaves)
		if err != nil {
			return false
		}
		for attr := 0; attr < 2; attr++ {
			cp := ClassificationPower(snap, attr)
			if cp < -1e-12 || cp > 1+1e-12 || math.IsNaN(cp) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClassificationPowersOrder(t *testing.T) {
	snap := fig6Snapshot(t)
	cps := ClassificationPowers(snap)
	if len(cps) != 3 {
		t.Fatalf("len = %d, want 3", len(cps))
	}
	for i, c := range cps {
		if c.Attr != i {
			t.Errorf("cps[%d].Attr = %d", i, c.Attr)
		}
	}
}

func TestSelectAttributesDeletesRedundant(t *testing.T) {
	cps := []AttributeCP{
		{Attr: 0, CP: 0.9},
		{Attr: 1, CP: 0.0},
		{Attr: 2, CP: 0.4},
		{Attr: 3, CP: 0.01},
	}
	got := SelectAttributes(cps, 0.02)
	want := []int{0, 2}
	if len(got) != len(want) {
		t.Fatalf("SelectAttributes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SelectAttributes[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSelectAttributesBoundaryIsDeleted(t *testing.T) {
	// Criteria 1 keeps only CP strictly greater than t_CP.
	cps := []AttributeCP{{Attr: 0, CP: 0.02}, {Attr: 1, CP: 0.021}}
	got := SelectAttributes(cps, 0.02)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("SelectAttributes = %v, want [1]", got)
	}
}

func TestSelectAttributesFallbackKeepsAll(t *testing.T) {
	cps := []AttributeCP{{Attr: 0, CP: 0}, {Attr: 1, CP: 0}}
	got := SelectAttributes(cps, 0.02)
	if len(got) != 2 {
		t.Errorf("fallback kept %v, want both attributes", got)
	}
}

func TestSelectAttributesSortedByCP(t *testing.T) {
	cps := []AttributeCP{
		{Attr: 0, CP: 0.3},
		{Attr: 1, CP: 0.8},
		{Attr: 2, CP: 0.5},
	}
	got := SelectAttributes(cps, 0.0)
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SelectAttributes = %v, want %v", got, want)
		}
	}
}

// TestClassificationPowerAfterRelabel is the stale-column regression test
// at the consumer level: ClassificationPower reads the columnar store's
// anomaly bitset, so relabeling a snapshot in place must change the CP — a stale bitset or a stale cached
// anomalous count would silently reproduce the old verdicts.
func TestClassificationPowerAfterRelabel(t *testing.T) {
	snap := fig6Snapshot(t)
	if got := ClassificationPower(snap, 0); math.Abs(got-1) > 1e-12 {
		t.Fatalf("CP_A = %v before relabel, want 1", got)
	}

	// Move the anomaly from (a1, *, *) to (*, b1, *): now B separates
	// perfectly and A carries no information.
	snap.Rewrite(func(l kpi.Leaf) (float64, float64, bool) {
		return l.Actual, l.Forecast, l.Combo[1] == 0
	})

	if got := ClassificationPower(snap, 0); math.Abs(got) > 1e-12 {
		t.Errorf("CP_A = %v after relabel, want 0 (stale columnar store?)", got)
	}
	if got := ClassificationPower(snap, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("CP_B = %v after relabel, want 1 (stale columnar store?)", got)
	}

	// The all-attributes pass reads the same store.
	for _, cp := range ClassificationPowers(snap) {
		want := 0.0
		if cp.Attr == 1 {
			want = 1.0
		}
		if math.Abs(cp.CP-want) > 1e-12 {
			t.Errorf("CP of attribute %d = %v, want %v", cp.Attr, cp.CP, want)
		}
	}
}
