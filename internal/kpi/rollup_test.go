package kpi

import (
	"reflect"
	"testing"
)

// TestRollupBaseSelection pins the greedy base choice: narrow attributes
// are admitted first (ascending cardinality, maximizing covered
// attributes), the Cartesian size never exceeds the limit, and bases that
// would span fewer than two attributes are refused.
func TestRollupBaseSelection(t *testing.T) {
	snap := scanTestSnapshot(t, 0) // cards a=3, b=4, c=2
	attrs := []int{1, 0, 2}        // deliberately non-ascending search order

	cases := []struct {
		limit int
		base  Cuboid // nil means no plan
	}{
		{limit: 24, base: Cuboid{1, 0, 2}}, // full domain fits, attrs order kept
		{limit: 23, base: Cuboid{0, 2}},    // b (card 4) no longer fits after c, a
		{limit: 6, base: Cuboid{0, 2}},     // exactly a*c
		{limit: 5, base: nil},              // only one attribute fits
		{limit: 1, base: nil},
	}
	for _, tc := range cases {
		plan := snap.newRollupPlan(attrs, tc.limit)
		if tc.base == nil {
			if plan != nil {
				t.Fatalf("limit %d: got base %v, want no plan", tc.limit, plan.Base())
			}
			continue
		}
		if plan == nil {
			t.Fatalf("limit %d: no plan, want base %v", tc.limit, tc.base)
		}
		if !reflect.DeepEqual(plan.Base(), tc.base) {
			t.Fatalf("limit %d: base %v, want %v", tc.limit, plan.Base(), tc.base)
		}
		plan.Close()
	}

	if plan := snap.NewRollupPlan([]int{0}); plan != nil {
		t.Fatalf("single-attribute schedule built a plan with base %v", plan.Base())
	}
}

// TestRollupServes pins the refinement test: a cuboid is served iff every
// attribute it constrains is in the base.
func TestRollupServes(t *testing.T) {
	snap := scanTestSnapshot(t, 0)
	plan := snap.newRollupPlan([]int{1, 0, 2}, 6) // base {0, 2}
	if plan == nil {
		t.Fatal("no plan")
	}
	defer plan.Close()
	for _, tc := range []struct {
		c    Cuboid
		want bool
	}{
		{Cuboid{0}, true},
		{Cuboid{2}, true},
		{Cuboid{0, 2}, true},
		{Cuboid{1}, false},
		{Cuboid{1, 0}, false},
		{Cuboid{1, 0, 2}, false},
	} {
		if got := plan.Serves(tc.c); got != tc.want {
			t.Fatalf("Serves(%v) = %v, want %v", tc.c, got, tc.want)
		}
	}
}

// TestRollupGroupsMatchScanCuboid pins the roll-up arithmetic to the
// per-cuboid scan: for every served cuboid of every layer, Groups must be
// identical to ScanCuboid, at every worker count.
func TestRollupGroupsMatchScanCuboid(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		snap := scanTestSnapshot(t, seed)
		attrs := []int{0, 1, 2}
		var got []GroupCount
		for _, workers := range []int{1, 2, 4, 8} {
			plan := snap.NewRollupPlan(attrs) // heuristic limit: full domain fits
			if plan == nil {
				t.Fatalf("seed %d: no plan under the default limit", seed)
			}
			if !plan.Run(workers, nil) {
				t.Fatalf("seed %d workers %d: base pass aborted without a halt", seed, workers)
			}
			for layer := 1; layer <= len(attrs); layer++ {
				for _, cuboid := range CuboidsAtLayer(attrs, layer) {
					if !plan.Serves(cuboid) {
						t.Fatalf("seed %d: full-domain base does not serve %v", seed, cuboid)
					}
					want, _ := snap.ScanCuboid(cuboid, nil, workers, nil)
					got = plan.Groups(cuboid, got)
					if !sameCounts(got, want) {
						t.Fatalf("seed %d workers %d cuboid %v:\nrollup %v\n  scan %v",
							seed, workers, cuboid, got, want)
					}
				}
			}
			plan.Close()
		}
	}
}

// TestRollupHaltAborts checks a tripped halt abandons the base pass: Run
// reports false and the plan holds no accumulators to serve from.
func TestRollupHaltAborts(t *testing.T) {
	snap := scanTestSnapshot(t, 0)
	plan := snap.NewRollupPlan([]int{0, 1, 2})
	if plan == nil {
		t.Fatal("no plan")
	}
	defer plan.Close()
	if plan.Run(1, func() bool { return true }) {
		t.Fatal("Run completed under an always-tripped halt")
	}
	if plan.buf != nil || plan.marg != nil {
		t.Fatal("aborted base pass left accumulators behind")
	}
}

// TestRollupEmptySnapshotShortCircuit checks both count paths report no
// groups on a leafless snapshot: the roll-up skips its marginal walk and
// the scan counts nothing.
func TestRollupEmptySnapshotShortCircuit(t *testing.T) {
	s := MustSchema(
		Attribute{Name: "a", Values: []string{"a1", "a2", "a3"}},
		Attribute{Name: "b", Values: []string{"b1", "b2"}},
	)
	snap, err := NewSnapshot(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	attrs := []int{0, 1}

	plan := snap.NewRollupPlan(attrs)
	if plan == nil {
		t.Fatal("no plan for the empty snapshot")
	}
	defer plan.Close()
	if !plan.Run(2, nil) {
		t.Fatal("base pass aborted")
	}
	if got := plan.Groups(Cuboid{0, 1}, nil); len(got) != 0 {
		t.Fatalf("rolled up %d groups from an empty snapshot", len(got))
	}
	for _, c := range CuboidsAtLayer(attrs, 1) {
		if got, ok := snap.ScanCuboid(c, nil, 2, nil); !ok || len(got) != 0 {
			t.Fatalf("cuboid %v: scanned %d groups (ok %v) from an empty snapshot", c, len(got), ok)
		}
	}
}

// TestRollupDefaultLimit pins the heuristic: proportional to the leaf
// count with a floor, so realistic dense snapshots materialize their full
// surviving-attribute cuboid.
func TestRollupDefaultLimit(t *testing.T) {
	if got := defaultRollupLimit(0); got != 1<<12 {
		t.Fatalf("defaultRollupLimit(0) = %d, want the floor %d", got, 1<<12)
	}
	if got := defaultRollupLimit(10_000); got != 20_000 {
		t.Fatalf("defaultRollupLimit(10000) = %d, want 20000", got)
	}
}
