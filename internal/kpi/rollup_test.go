package kpi

import (
	"math/rand"
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
// reports false, the plan holds no accumulators to serve from and the
// snapshot caches no totals.
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
	if plan.buf != nil || plan.totals != nil || plan.anm != nil {
		t.Fatal("aborted base pass left accumulators behind")
	}
	if snap.frame != nil && snap.frame.totals != nil {
		t.Fatal("aborted base pass seeded the snapshot's totals")
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

// allAttrs lists every attribute of s's schema.
func allAttrs(s *Snapshot) []int {
	attrs := make([]int, s.Schema.NumAttributes())
	for a := range attrs {
		attrs[a] = a
	}
	return attrs
}

// patchNothing applies an empty delta: the snapshot turns into one
// ApplyDelta patches, which keeps roll-up totals, and nothing else changes
// but the generation.
func patchNothing(t testing.TB, s *Snapshot) {
	t.Helper()
	if _, err := s.ApplyDelta(Delta{}); err != nil {
		t.Fatal(err)
	}
}

// seedTotals runs a roll-up plan over attrs that reads the leaves, and asks
// it for every cuboid, so the snapshot — which ApplyDelta must have patched —
// keeps the base's totals with every marginal memoized.
func seedTotals(t testing.TB, s *Snapshot, attrs []int) {
	t.Helper()
	plan := s.NewRollupPlan(attrs)
	if plan == nil {
		t.Fatalf("no roll-up plan over %v", attrs)
	}
	defer plan.Close()
	if !plan.Run(1, nil) {
		t.Fatal("base pass aborted without a halt")
	}
	if !plan.Scanned() {
		t.Fatal("seeding plan reused totals instead of reading the leaves")
	}
	for _, c := range AllCuboids(attrs) {
		if plan.Serves(c) {
			plan.Groups(c, nil)
		}
	}
}

// assertRollupReusesTotals runs a roll-up plan over attrs on a snapshot a
// writer changed since its totals were seeded, and checks that the plan
// reads no leaf and that every cuboid it serves matches ScanCuboid on a
// fresh snapshot of the same leaves. It returns the plan's direct flag.
func assertRollupReusesTotals(t *testing.T, s *Snapshot, attrs []int, workers int) bool {
	t.Helper()
	plan := s.NewRollupPlan(attrs)
	if plan == nil {
		t.Fatalf("no roll-up plan over %v", attrs)
	}
	defer plan.Close()
	if !plan.Run(workers, nil) {
		t.Fatal("run aborted without a halt")
	}
	if plan.Scanned() {
		t.Fatal("run after a write read the leaves instead of the kept totals")
	}
	fresh := freshOf(t, s)
	var got []GroupCount
	for _, c := range AllCuboids(attrs) {
		if !plan.Serves(c) {
			continue
		}
		want, _ := fresh.ScanCuboid(c, nil, 1, nil)
		if got = plan.Groups(c, got); !sameCounts(got, want) {
			t.Fatalf("cuboid %v from kept totals:\n got %v\nwant %v", c, got, want)
		}
	}
	return plan.direct
}

// rollupTotalsWorld is a dense 12·10·8 = 960-leaf snapshot whose leaves are
// anomalous with probability rate.
func rollupTotalsWorld(t testing.TB, rate float64) *Snapshot {
	t.Helper()
	var attrs []Attribute
	for _, a := range []struct {
		name string
		card int
	}{{"region", 12}, {"isp", 10}, {"proto", 8}} {
		attr := Attribute{Name: a.name}
		for v := 0; v < a.card; v++ {
			attr.Values = append(attr.Values, a.name+string(rune('A'+v)))
		}
		attrs = append(attrs, attr)
	}
	schema := MustSchema(attrs...)
	r := rand.New(rand.NewSource(int64(rate * 1000)))
	all := NewCuboidIndexer(schema, Cuboid{0, 1, 2})
	leaves := make([]Leaf, all.Size())
	for i := range leaves {
		leaves[i] = Leaf{Combo: all.Combination(i), Actual: 100 * r.Float64(), Forecast: 100, Anomalous: r.Float64() < rate}
	}
	snap, err := NewSnapshot(schema, leaves)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestRollupTotalsKeptAcrossWriters walks a snapshot through every writer
// — labels, values, adds and removes — and after each checks that a
// roll-up plan serves every cuboid from the kept totals exactly as a fresh
// snapshot's scan counts it: with few anomalous leaves, counted per cuboid
// (direct), and with half the leaves anomalous, counted once for the base.
// It also pins when a plan reads the leaves and what it keeps: nothing on
// a snapshot ApplyDelta never patched, however written, and on a patched
// one, a base other than the kept one replaces it and every run in the
// generation that counted the totals reads the leaves too.
func TestRollupTotalsKeptAcrossWriters(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rate   float64
		direct bool
	}{{"few", 0.02, true}, {"large", 0.5, false}} {
		t.Run(tc.name, func(t *testing.T) {
			snap := rollupTotalsWorld(t, tc.rate)
			attrs := allAttrs(snap)
			detect := func(actual, forecast float64) bool { return actual < tc.rate*forecast }
			gone := []Combination{snap.Leaves[5].Combo.Clone(), snap.Leaves[700].Combo.Clone()}
			writers := []struct {
				name  string
				write func()
			}{
				{"relabel", func() { snap.Relabel(detect) }},
				{"relabel_touched", func() {
					snap.RelabelTouched(func(actual, forecast float64) bool { return !detect(actual, forecast) }, []int{1, 2, 3})
				}},
				{"update", func() {
					d := Delta{Updates: []LeafUpdate{{Combo: snap.Leaves[9].Combo, Actual: 1, Forecast: 100}}}
					if _, err := snap.ApplyDelta(d); err != nil {
						t.Fatal(err)
					}
				}},
				{"remove", func() {
					if _, err := snap.ApplyDelta(Delta{Removes: gone}); err != nil {
						t.Fatal(err)
					}
				}},
				{"add", func() {
					d := Delta{Adds: []Leaf{{Combo: gone[1], Actual: 1, Forecast: 100, Anomalous: true}}}
					if _, err := snap.ApplyDelta(d); err != nil {
						t.Fatal(err)
					}
				}},
				{"remove_and_add", func() {
					d := Delta{
						Removes: []Combination{snap.Leaves[0].Combo.Clone()},
						Adds:    []Leaf{{Combo: gone[0], Actual: 50, Forecast: 100}},
					}
					if _, err := snap.ApplyDelta(d); err != nil {
						t.Fatal(err)
					}
				}},
				{"rewrite", func() {
					snap.Rewrite(func(l Leaf) (float64, float64, bool) { return l.Actual, l.Forecast, !l.Anomalous })
				}},
			}
			// A snapshot ApplyDelta never patched keeps no totals, as
			// built or after a rewrite.
			for _, write := range []func(){func() {}, func() {
				snap.Rewrite(func(l Leaf) (float64, float64, bool) { return l.Actual, l.Forecast, l.Anomalous })
			}} {
				write()
				plan := snap.NewRollupPlan(attrs)
				if !plan.Run(1, nil) || snap.frame.totals != nil {
					t.Fatal("a search of a snapshot ApplyDelta never patched kept its totals")
				}
				plan.Close()
			}
			patchNothing(t, snap)
			seedTotals(t, snap, attrs)
			for i, w := range writers {
				w.write()
				workers := 1 << (i % 4)
				// Rewrite flips every label: most leaves turn anomalous.
				if direct := assertRollupReusesTotals(t, snap, attrs, workers); direct != (tc.direct && w.name != "rewrite") {
					t.Fatalf("after %s: direct = %v", w.name, direct)
				}
			}

			// A plan over another base reads the leaves and replaces the
			// kept totals. Every run of the generation that counted them
			// reads the leaves too, and every run of a later one reuses
			// them, so the runs of one generation agree.
			seedTotals(t, snap, attrs[:2])
			seedTotals(t, snap, attrs[:2])
			snap.Relabel(detect)
			assertRollupReusesTotals(t, snap, attrs[:2], 2)
			assertRollupReusesTotals(t, snap, attrs[:2], 8)
			seedTotals(t, snap, attrs)
			if _, err := snap.ApplyDelta(Delta{Removes: []Combination{snap.Leaves[3].Combo.Clone()}}); err != nil {
				t.Fatal(err)
			}
			assertRollupReusesTotals(t, snap, attrs, 4)
		})
	}
}

// TestRollupTotalsHaltAborts checks that a run reusing the kept totals
// polls halt while it counts a large incident's anomalous leaves, and
// that a tripped halt leaves the kept totals in place.
func TestRollupTotalsHaltAborts(t *testing.T) {
	snap := rollupTotalsWorld(t, 0.5)
	attrs := allAttrs(snap)
	patchNothing(t, snap)
	seedTotals(t, snap, attrs)
	snap.Relabel(func(actual, forecast float64) bool { return actual < forecast/2 })
	plan := snap.NewRollupPlan(attrs)
	if plan.Run(1, func() bool { return true }) {
		t.Fatal("Run completed under an always-tripped halt")
	}
	plan.Close()
	assertRollupReusesTotals(t, snap, attrs, 1)
}
