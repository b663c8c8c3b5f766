package kpi

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// buildTestSnapshot creates a dense snapshot over the test schema where the
// leaves under (L1, *, *, Site1) are anomalous (the Fig. 3 scenario).
func buildTestSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	s := testSchema(t)
	rap := MustParseCombination(s, "(L1, *, *, Site1)")
	var leaves []Leaf
	for l := int32(0); l < 3; l++ {
		for a := int32(0); a < 2; a++ {
			for o := int32(0); o < 2; o++ {
				for w := int32(0); w < 2; w++ {
					combo := Combination{l, a, o, w}
					leaf := Leaf{
						Combo:    combo,
						Actual:   100,
						Forecast: 100,
					}
					if rap.Matches(combo) {
						leaf.Actual = 40
						leaf.Anomalous = true
					}
					leaves = append(leaves, leaf)
				}
			}
		}
	}
	snap, err := NewSnapshot(s, leaves)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	return snap
}

func TestSnapshotValidation(t *testing.T) {
	s := testSchema(t)
	tests := []struct {
		name   string
		leaves []Leaf
		want   string
	}{
		{
			name:   "wrong arity",
			leaves: []Leaf{{Combo: Combination{0, 0}}},
			want:   "attributes",
		},
		{
			name:   "wildcard leaf",
			leaves: []Leaf{{Combo: Combination{0, Wildcard, 0, 0}}},
			want:   "not fully constrained",
		},
		{
			name:   "invalid code",
			leaves: []Leaf{{Combo: Combination{0, 9, 0, 0}}},
			want:   "invalid code",
		},
		{
			name: "duplicate leaf",
			leaves: []Leaf{
				{Combo: Combination{0, 0, 0, 0}},
				{Combo: Combination{0, 0, 0, 0}},
			},
			want: "duplicate leaf",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewSnapshot(s, tt.leaves)
			if err == nil {
				t.Fatal("NewSnapshot succeeded, want error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestSupportCountAndConfidence(t *testing.T) {
	snap := buildTestSnapshot(t)
	s := snap.Schema

	rap := MustParseCombination(s, "(L1, *, *, Site1)")
	total, anom := snap.SupportCount(rap)
	if total != 4 || anom != 4 {
		t.Errorf("SupportCount(RAP) = (%d, %d), want (4, 4)", total, anom)
	}
	if got := snap.Confidence(rap); got != 1 {
		t.Errorf("Confidence(RAP) = %v, want 1", got)
	}

	l1 := MustParseCombination(s, "(L1, *, *, *)")
	total, anom = snap.SupportCount(l1)
	if total != 8 || anom != 4 {
		t.Errorf("SupportCount(L1) = (%d, %d), want (8, 4)", total, anom)
	}
	if got := snap.Confidence(l1); got != 0.5 {
		t.Errorf("Confidence(L1) = %v, want 0.5", got)
	}

	clean := MustParseCombination(s, "(L2, *, *, *)")
	if got := snap.Confidence(clean); got != 0 {
		t.Errorf("Confidence(L2) = %v, want 0", got)
	}
}

func TestConfidenceOfAbsentCombination(t *testing.T) {
	s := testSchema(t)
	snap, err := NewSnapshot(s, []Leaf{{Combo: Combination{0, 0, 0, 0}, Anomalous: true}})
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	absent := MustParseCombination(s, "(L3, *, *, *)")
	if got := snap.Confidence(absent); got != 0 {
		t.Errorf("Confidence of absent combination = %v, want 0", got)
	}
}

func TestSumAggregation(t *testing.T) {
	snap := buildTestSnapshot(t)
	s := snap.Schema

	// Fundamental KPIs are additive: the root sums everything.
	v, f := snap.Sum(NewRoot(4))
	wantV := float64(20*100 + 4*40)
	wantF := float64(24 * 100)
	if v != wantV || f != wantF {
		t.Errorf("Sum(root) = (%v, %v), want (%v, %v)", v, f, wantV, wantF)
	}

	rap := MustParseCombination(s, "(L1, *, *, Site1)")
	v, f = snap.Sum(rap)
	if v != 160 || f != 400 {
		t.Errorf("Sum(RAP) = (%v, %v), want (160, 400)", v, f)
	}
}

func TestGroupByMatchesSupportCount(t *testing.T) {
	snap := buildTestSnapshot(t)
	for _, cuboid := range AllCuboids([]int{0, 1, 2, 3}) {
		groups := snap.GroupBy(cuboid)
		for _, g := range groups {
			combo := groupCombo(snap, cuboid, g)
			total, anom := snap.SupportCount(combo)
			if g.Total != total || g.Anomalous != anom {
				t.Fatalf("cuboid %v, combo %v: GroupBy = (%d, %d), SupportCount = (%d, %d)",
					cuboid, combo, g.Total, g.Anomalous, total, anom)
			}
			v, f := snap.Sum(combo)
			if math.Abs(g.Actual-v) > 1e-9 || math.Abs(g.Forecast-f) > 1e-9 {
				t.Fatalf("cuboid %v, combo %v: aggregates disagree", cuboid, combo)
			}
		}
	}
}

func TestGroupByGroupCountMatchesCartesianOnDenseData(t *testing.T) {
	snap := buildTestSnapshot(t)
	s := snap.Schema
	for _, cuboid := range AllCuboids([]int{0, 1, 2, 3}) {
		want := 1
		for _, a := range cuboid {
			want *= s.Cardinality(a)
		}
		if got := len(snap.GroupBy(cuboid)); got != want {
			t.Errorf("cuboid %v: %d groups, want %d", cuboid, got, want)
		}
	}
}

func TestGroupByDeterministicOrder(t *testing.T) {
	snap := buildTestSnapshot(t)
	a := snap.GroupBy(Cuboid{0, 3})
	b := snap.GroupBy(Cuboid{0, 3})
	if len(a) != len(b) {
		t.Fatalf("group counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order differs at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestAnomalousLeafSet(t *testing.T) {
	snap := buildTestSnapshot(t)
	idx := snap.AnomalousLeafSet()
	if len(idx) != 4 {
		t.Fatalf("AnomalousLeafSet len = %d, want 4", len(idx))
	}
	for _, i := range idx {
		if !snap.Leaves[i].Anomalous {
			t.Errorf("leaf %d in anomalous set but not anomalous", i)
		}
	}
	if got, want := snap.NumAnomalous(), 4; got != want {
		t.Errorf("NumAnomalous = %d, want %d", got, want)
	}
}

func TestSnapshotClone(t *testing.T) {
	snap := buildTestSnapshot(t)
	clone := snap.Clone()
	clone.Leaves[0].Actual = -1
	clone.Leaves[0].Combo[0] = 2
	if snap.Leaves[0].Actual == -1 {
		t.Error("Clone shares leaf values")
	}
	if snap.Leaves[0].Combo[0] == 2 {
		t.Error("Clone shares combination storage")
	}
}

func TestLeafDev(t *testing.T) {
	l := Leaf{Actual: 50, Forecast: 100}
	if got := l.Dev(0); got != 0.5 {
		t.Errorf("Dev = %v, want 0.5", got)
	}
	zero := Leaf{Actual: 1, Forecast: 0}
	if got := zero.Dev(1e-9); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("Dev with eps produced %v", got)
	}
}

func TestSparseSnapshotSupport(t *testing.T) {
	// Sparse snapshots (missing leaves) are first-class: counts follow the
	// observed data only.
	s := testSchema(t)
	r := rand.New(rand.NewSource(3))
	var leaves []Leaf
	for l := int32(0); l < 3; l++ {
		for a := int32(0); a < 2; a++ {
			if r.Intn(3) == 0 {
				continue
			}
			leaves = append(leaves, Leaf{
				Combo:    Combination{l, a, 0, 0},
				Actual:   1,
				Forecast: 1,
			})
		}
	}
	snap, err := NewSnapshot(s, leaves)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	total, _ := snap.SupportCount(NewRoot(4))
	if total != len(leaves) {
		t.Errorf("root support = %d, want %d", total, len(leaves))
	}
}

func TestCuboidIndexerBijectiveQuick(t *testing.T) {
	// Index and Combination are inverse over every cuboid of the test
	// schema, and distinct leaves in a cuboid's Cartesian space map to
	// distinct indexes.
	s := testSchema(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		attrs := []int{0, 1, 2, 3}
		cuboid := Cuboid{}
		for _, a := range attrs {
			if r.Intn(2) == 0 {
				cuboid = append(cuboid, a)
			}
		}
		if len(cuboid) == 0 {
			cuboid = Cuboid{0}
		}
		ix := NewCuboidIndexer(s, cuboid)
		leaf := Combination{
			int32(r.Intn(3)), int32(r.Intn(2)), int32(r.Intn(2)), int32(r.Intn(2)),
		}
		idx := ix.Index(leaf)
		if idx < 0 || idx >= ix.Size() {
			return false
		}
		back := ix.Combination(idx)
		// The reconstruction equals the leaf's projection.
		return back.Equal(leaf.Project(cuboid)) && ix.Index(back) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGroupBySparseHugeDomain(t *testing.T) {
	// A schema whose leaf cuboid has ~10^12 combinations: the dense path
	// would try to allocate the whole domain, so the sparse path must
	// kick in and still produce exact statistics.
	vals := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	s := MustSchema(
		Attribute{Name: "A", Values: vals("a", 10000)},
		Attribute{Name: "B", Values: vals("b", 10000)},
		Attribute{Name: "C", Values: vals("c", 10000)},
	)
	r := rand.New(rand.NewSource(8))
	seen := make(map[string]struct{})
	var leaves []Leaf
	for len(leaves) < 500 {
		combo := Combination{int32(r.Intn(10000)), int32(r.Intn(10000)), int32(r.Intn(10000))}
		if _, dup := seen[combo.Key()]; dup {
			continue
		}
		seen[combo.Key()] = struct{}{}
		leaves = append(leaves, Leaf{Combo: combo, Actual: 1, Forecast: 2, Anomalous: r.Intn(2) == 0})
	}
	snap, err := NewSnapshot(s, leaves)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	for _, cuboid := range []Cuboid{{0}, {0, 1}, {0, 1, 2}} {
		groups := snap.GroupBy(cuboid)
		totalLeaves := 0
		for _, g := range groups {
			totalLeaves += g.Total
			combo := groupCombo(snap, cuboid, g)
			total, anom := snap.SupportCount(combo)
			if g.Total != total || g.Anomalous != anom {
				t.Fatalf("cuboid %v combo %v: (%d,%d) vs (%d,%d)",
					cuboid, combo, g.Total, g.Anomalous, total, anom)
			}
		}
		if totalLeaves != snap.Len() {
			t.Fatalf("cuboid %v: groups cover %d leaves, want %d", cuboid, totalLeaves, snap.Len())
		}
		// Deterministic order.
		again := snap.GroupBy(cuboid)
		for i := range groups {
			if groups[i] != again[i] {
				t.Fatalf("cuboid %v: sparse order not deterministic", cuboid)
			}
		}
	}
}

// Dev returns the relative deviation (f - v) / f used by the paper's
// failure-injection procedure (Eq. 4). eps guards the division so the
// denominator's magnitude never falls below eps: the guard is applied on
// the side of the forecast's own sign, so a negative forecast (derived
// KPIs can dip below zero) keeps its sign and cannot push the denominator
// across zero — which would flip the deviation's sign or blow it up.
func (l Leaf) Dev(eps float64) float64 {
	den := l.Forecast + eps
	if l.Forecast < 0 {
		den = l.Forecast - eps
	}
	return (l.Forecast - l.Actual) / den
}
