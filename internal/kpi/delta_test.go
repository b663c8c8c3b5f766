package kpi

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// deltaTestSnapshot builds a small dense labeled snapshot for delta tests.
func deltaTestSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	schema := MustSchema(
		Attribute{Name: "region", Values: []string{"r1", "r2", "r3"}},
		Attribute{Name: "isp", Values: []string{"i1", "i2"}},
		Attribute{Name: "proto", Values: []string{"p1", "p2"}},
	)
	r := rand.New(rand.NewSource(7))
	var leaves []Leaf
	for a := int32(0); a < 3; a++ {
		for b := int32(0); b < 2; b++ {
			for c := int32(0); c < 2; c++ {
				leaves = append(leaves, Leaf{
					Combo:     Combination{a, b, c},
					Actual:    100 * r.Float64(),
					Forecast:  100,
					Anomalous: r.Intn(3) == 0,
				})
			}
		}
	}
	snap, err := NewSnapshot(schema, leaves)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// freshOf rebuilds a from-scratch snapshot over the same post-delta leaves —
// the delta contract's reference point.
func freshOf(t testing.TB, s *Snapshot) *Snapshot {
	t.Helper()
	fresh, err := NewSnapshot(s.Schema, s.Clone().Leaves)
	if err != nil {
		t.Fatalf("post-delta leaves no longer form a valid snapshot: %v", err)
	}
	return fresh
}

// samePostings compares inverted postings treating nil and empty lists as
// equal (a patch that empties a list keeps a zero-length slice where a fresh
// build leaves nil).
func samePostings(a, b [][][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if len(a[i][j]) != len(b[i][j]) {
				return false
			}
			for k := range a[i][j] {
				if a[i][j][k] != b[i][j][k] {
					return false
				}
			}
		}
	}
	return true
}

// sameIdx is samePostings' nil-tolerant comparison for anomalous leaf sets.
func sameIdx(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertDeltaEquivalence checks every observable structure of the patched
// snapshot against a from-scratch rebuild of its post-delta leaves.
func assertDeltaEquivalence(t *testing.T, patched *Snapshot) {
	t.Helper()
	fresh := freshOf(t, patched)

	if !sameIdx(patched.AnomalousLeafSet(), fresh.AnomalousLeafSet()) {
		t.Fatalf("anomalous leaf set: patched %v, fresh %v",
			patched.AnomalousLeafSet(), fresh.AnomalousLeafSet())
	}
	if !samePostings(patched.AnomalousPostings(), fresh.AnomalousPostings()) {
		t.Fatalf("postings diverge:\npatched %v\nfresh   %v",
			patched.AnomalousPostings(), fresh.AnomalousPostings())
	}

	pc, fc := patched.Columns(), fresh.Columns()
	if pc.Len() != fc.Len() || pc.NumAnomalous() != fc.NumAnomalous() {
		t.Fatalf("columns: patched (n=%d, anom=%d), fresh (n=%d, anom=%d)",
			pc.Len(), pc.NumAnomalous(), fc.Len(), fc.NumAnomalous())
	}
	if !reflect.DeepEqual(pc.AnomalousBits(), fc.AnomalousBits()) {
		t.Fatalf("bitset: patched %b, fresh %b", pc.AnomalousBits(), fc.AnomalousBits())
	}
	for a := 0; a < patched.Schema.NumAttributes(); a++ {
		if !reflect.DeepEqual(pc.Elem(a), fc.Elem(a)) {
			t.Fatalf("elem column %d: patched %v, fresh %v", a, pc.Elem(a), fc.Elem(a))
		}
	}
	if !reflect.DeepEqual(pc.Actual(), fc.Actual()) || !reflect.DeepEqual(pc.Forecast(), fc.Forecast()) {
		t.Fatal("value columns diverge")
	}

	attrs := make([]int, patched.Schema.NumAttributes())
	for a := range attrs {
		attrs[a] = a
	}
	var want, got []GroupCount
	for layer := 1; layer <= len(attrs); layer++ {
		for _, cuboid := range CuboidsAtLayer(attrs, layer) {
			want, _ = fresh.ScanCuboid(cuboid, want, 1, nil)
			got, _ = patched.ScanCuboid(cuboid, got, 1, nil)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("cuboid %v: patched %v, fresh %v", cuboid, got, want)
			}
		}
	}
}

// TestDeltaApplyColdCaches applies a delta before any cache exists: nothing
// to patch, everything derives lazily from the mutated leaves.
func TestDeltaApplyColdCaches(t *testing.T) {
	snap := deltaTestSnapshot(t)
	res, err := snap.ApplyDelta(Delta{
		Removes: []Combination{{0, 0, 0}},
		Updates: []LeafUpdate{{Combo: Combination{1, 1, 1}, Actual: 5, Forecast: 100}},
		Adds:    []Leaf{{Combo: Combination{0, 0, 0}, Actual: 7, Forecast: 8, Anomalous: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 1 || res.Updated != 1 || res.Added != 1 {
		t.Fatalf("result %+v, want 1/1/1", res)
	}
	if res.PatchedFrame || res.PatchedLabels {
		t.Fatalf("cold caches reported patched: %+v", res)
	}
	if len(res.Touched) != 2 {
		t.Fatalf("touched %v, want 2 indexes", res.Touched)
	}
	assertDeltaEquivalence(t, snap)
}

// TestDeltaApplyPatchesWarmCaches is the core contract: with every cache
// built, a delta patches them in place — the frame pointer survives — and
// the result is indistinguishable from a from-scratch snapshot.
func TestDeltaApplyPatchesWarmCaches(t *testing.T) {
	snap := deltaTestSnapshot(t)
	// Warm everything.
	snap.Columns()
	snap.AnomalousPostings()
	frameBefore := snap.colFrameCached()
	genBefore := snap.Generation()

	res, err := snap.ApplyDelta(Delta{
		Removes: []Combination{{2, 1, 1}, {0, 1, 0}},
		Updates: []LeafUpdate{
			{Combo: Combination{0, 0, 0}, Actual: 1, Forecast: 100},
			{Combo: Combination{1, 0, 1}, Actual: 99, Forecast: 100},
		},
		Adds: []Leaf{
			{Combo: Combination{2, 1, 1}, Actual: 3, Forecast: 100, Anomalous: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PatchedFrame || !res.PatchedLabels {
		t.Fatalf("warm caches not patched: %+v", res)
	}
	if snap.colFrameCached() != frameBefore {
		t.Fatal("columnar frame was rebuilt, not patched")
	}
	if snap.Generation() == genBefore {
		t.Fatal("generation did not advance across ApplyDelta")
	}
	assertDeltaEquivalence(t, snap)
}

// TestDeltaValidationAtomic: any invalid record rejects the whole delta and
// leaves the snapshot byte-identical.
func TestDeltaValidationAtomic(t *testing.T) {
	snap := deltaTestSnapshot(t)
	snap.Columns()
	before := freshOf(t, snap)

	cases := []struct {
		name string
		d    Delta
	}{
		{"remove unknown", Delta{Removes: []Combination{{9, 0, 0}}}},
		{"remove wildcard", Delta{Removes: []Combination{{Wildcard, 0, 0}}}},
		{"remove duplicate", Delta{Removes: []Combination{{0, 0, 0}, {0, 0, 0}}}},
		{"update unknown", Delta{
			Removes: []Combination{{0, 0, 0}},
			Updates: []LeafUpdate{{Combo: Combination{0, 0, 0}, Actual: 1, Forecast: 2}},
		}},
		{"update short combo", Delta{Updates: []LeafUpdate{{Combo: Combination{0, 0}}}}},
		{"add present", Delta{Adds: []Leaf{{Combo: Combination{0, 0, 0}}}}},
		{"add duplicate", Delta{
			Removes: []Combination{{0, 0, 0}},
			Adds: []Leaf{
				{Combo: Combination{0, 0, 0}},
				{Combo: Combination{0, 0, 0}},
			},
		}},
	}
	for _, tc := range cases {
		res, err := snap.ApplyDelta(tc.d)
		if err == nil {
			t.Fatalf("%s: delta applied, result %+v", tc.name, res)
		}
		if snap.Len() != before.Len() {
			t.Fatalf("%s: leaf count changed on a rejected delta", tc.name)
		}
	}
	// The snapshot still matches the pre-delta world exactly.
	if !sameIdx(snap.AnomalousLeafSet(), before.AnomalousLeafSet()) {
		t.Fatal("rejected deltas perturbed the anomalous leaf set")
	}
	assertDeltaEquivalence(t, snap)
}

// TestDeltaRemoveThenReAdd exercises the documented ordering: a key removed
// and re-added by the same delta carries the fresh observation.
func TestDeltaRemoveThenReAdd(t *testing.T) {
	snap := deltaTestSnapshot(t)
	snap.Columns()
	res, err := snap.ApplyDelta(Delta{
		Removes: []Combination{{1, 1, 0}},
		Adds:    []Leaf{{Combo: Combination{1, 1, 0}, Actual: 123, Forecast: 456}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 1 || res.Added != 1 {
		t.Fatalf("result %+v", res)
	}
	i := res.Touched[0]
	if l := snap.Leaves[i]; l.Actual != 123 || l.Forecast != 456 || l.Anomalous {
		t.Fatalf("re-added leaf = %+v", l)
	}
	assertDeltaEquivalence(t, snap)
}

// TestDeltaRemoveAll drains the snapshot leaf by leaf with caches warm.
func TestDeltaRemoveAll(t *testing.T) {
	snap := deltaTestSnapshot(t)
	snap.Columns()
	snap.AnomalousPostings()
	for snap.Len() > 0 {
		if _, err := snap.ApplyDelta(Delta{Removes: []Combination{snap.Leaves[0].Combo.Clone()}}); err != nil {
			t.Fatal(err)
		}
		assertDeltaEquivalence(t, snap)
	}
	if n := snap.Columns().Len(); n != 0 {
		t.Fatalf("drained snapshot still encodes %d leaves", n)
	}
}

// TestPatchLabelsMatchesInvalidate: flipping labels through PatchLabels must
// leave the caches exactly as a full InvalidateLabels rebuild would.
func TestPatchLabelsMatchesInvalidate(t *testing.T) {
	snap := deltaTestSnapshot(t)
	snap.Columns()
	snap.AnomalousPostings()

	var changed []int
	for i := range snap.Leaves {
		if i%3 == 0 {
			snap.Leaves[i].Anomalous = !snap.Leaves[i].Anomalous
			changed = append(changed, i)
		}
	}
	snap.PatchLabels(changed)
	assertDeltaEquivalence(t, snap)
}

// TestInvalidateLabelsKeepsFrame is the granularity regression test: a
// relabel cycle (rewrite labels + InvalidateLabels) must not discard the
// label-independent columnar frame or the cuboid indexers — only
// InvalidateStructure does that.
func TestInvalidateLabelsKeepsFrame(t *testing.T) {
	snap := deltaTestSnapshot(t)
	cols := snap.Columns()
	frame := snap.colFrameCached()
	ix := snap.Indexer(Cuboid{0, 1})

	for i := range snap.Leaves {
		snap.Leaves[i].Anomalous = i%2 == 0
	}
	snap.InvalidateLabels()

	if snap.colFrameCached() != frame {
		t.Fatal("colFrame pointer did not survive the relabel cycle")
	}
	if snap.Indexer(Cuboid{0, 1}) != ix {
		t.Fatal("indexer cache did not survive the relabel cycle")
	}
	if snap.Columns() == cols {
		t.Fatal("label-derived columns survived InvalidateLabels")
	}
	assertDeltaEquivalence(t, snap)

	snap.InvalidateStructure()
	if snap.colFrameCached() == frame {
		t.Fatal("colFrame survived InvalidateStructure")
	}
	if snap.Indexer(Cuboid{0, 1}) != ix {
		t.Fatal("schema-derived indexer did not survive InvalidateStructure")
	}
}

// TestDeltaLeafPosMaintained checks the incremental leaf-position index
// against a rebuilt one after a mixed delta burst, on the dense slot table
// and on the map a sparse schema gets.
func TestDeltaLeafPosMaintained(t *testing.T) {
	sparse := MustSchema(
		Attribute{Name: "region", Values: elems("r", 40)},
		Attribute{Name: "isp", Values: elems("i", 30)},
		Attribute{Name: "proto", Values: elems("p", 20)},
	)
	var sparseLeaves []Leaf
	for i := int32(0); i < 12; i++ {
		sparseLeaves = append(sparseLeaves, Leaf{Combo: Combination{3 * i, 2 * i, i}, Actual: float64(i), Forecast: 10})
	}
	for _, tt := range []struct {
		name  string
		snap  *Snapshot
		dense bool
		d     Delta
	}{
		{"dense", deltaTestSnapshot(t), true, Delta{
			Removes: []Combination{{0, 0, 0}, {2, 1, 1}},
			Updates: []LeafUpdate{{Combo: Combination{1, 1, 0}, Actual: 3, Forecast: 4}},
			Adds:    []Leaf{{Combo: Combination{2, 1, 1}, Actual: 1, Forecast: 2}},
		}},
		{"sparse", mustSnapshot(t, sparse, sparseLeaves), false, Delta{
			Removes: []Combination{{0, 0, 0}, {33, 22, 11}},
			Updates: []LeafUpdate{{Combo: Combination{9, 6, 3}, Actual: 3, Forecast: 4}},
			Adds:    []Leaf{{Combo: Combination{33, 22, 11}, Actual: 1, Forecast: 2}, {Combo: Combination{39, 29, 19}}},
		}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			snap := tt.snap
			if _, err := snap.ApplyDelta(tt.d); err != nil {
				t.Fatal(err)
			}
			snap.mu.Lock()
			defer snap.mu.Unlock()
			pos := snap.leafPosLocked()
			if dense := pos.slots != nil; dense != tt.dense || dense == (pos.packed != nil) {
				t.Fatalf("slot table %v, packed map %v; want the slot table %v", dense, pos.packed != nil, tt.dense)
			}
			if pos.len() != len(snap.Leaves) {
				t.Fatalf("leafPos has %d entries for %d leaves", pos.len(), len(snap.Leaves))
			}
			for i := range snap.Leaves {
				if got, ok := pos.get(pos.keyer.key(snap.Leaves[i].Combo)); !ok || int(got) != i {
					t.Fatalf("leafPos[%s] = %d, want %d", snap.Leaves[i].Combo.Format(snap.Schema), got, i)
				}
			}
			for _, c := range tt.d.Removes[:1] {
				if _, ok := pos.get(pos.keyer.key(c)); ok {
					t.Fatalf("removed leaf %s still has a position", c.Format(snap.Schema))
				}
			}
		})
	}
}

func mustSnapshot(t testing.TB, schema *Schema, leaves []Leaf) *Snapshot {
	t.Helper()
	snap, err := NewSnapshot(schema, leaves)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// FuzzDeltaVsRebuild is the delta property test: random delta sequences
// applied to a warm snapshot must keep every count path's output —
// ScanCuboid and roll-up-served layers — identical to a from-scratch rebuild of the post-delta leaves, at several worker counts.
// After every step the per-element counts and the anomalous count must match
// the rebuild too, and the root sums its bit for bit. wide swaps in a schema
// whose product overflows, so leaf positions fall back to byte keys and the
// full cuboid's scan to combination keys.
func FuzzDeltaVsRebuild(f *testing.F) {
	f.Add(int64(1), byte(60), byte(30), uint8(3), false)
	f.Add(int64(2), byte(95), byte(5), uint8(1), false)
	f.Add(int64(3), byte(30), byte(80), uint8(5), false)
	f.Add(int64(42), byte(80), byte(50), uint8(7), false)
	f.Add(int64(5), byte(40), byte(40), uint8(6), true)
	f.Fuzz(func(t *testing.T, seed int64, density, anomRate byte, nDeltas uint8, wide bool) {
		snap := fuzzSnapshot(seed, density, anomRate)
		if wide {
			snap = fuzzWideSnapshot(seed, density, anomRate)
		}
		schema := snap.Schema
		nAttr := schema.NumAttributes()
		// Warm every cache so deltas exercise the patch paths.
		snap.Columns()
		snap.AnomalousPostings()
		snap.ElemCounts()

		r := rand.New(rand.NewSource(seed ^ 0x64656c7461))
		randomCombo := func() Combination {
			combo := make(Combination, nAttr)
			for a := range combo {
				combo[a] = int32(r.Intn(schema.Cardinality(a)))
			}
			return combo
		}
		for step := 0; step < int(nDeltas%8)+1; step++ {
			var d Delta
			present := make(map[string]bool, snap.Len())
			for i := range snap.Leaves {
				present[snap.Leaves[i].Combo.Key()] = true
			}
			claimed := make(map[string]bool)
			// Removes: up to 3 random existing leaves.
			for n := r.Intn(4); n > 0 && snap.Len() > 0; n-- {
				c := snap.Leaves[r.Intn(snap.Len())].Combo.Clone()
				if claimed[c.Key()] {
					continue
				}
				claimed[c.Key()] = true
				d.Removes = append(d.Removes, c)
			}
			// Updates: up to 3 random surviving leaves.
			for n := r.Intn(4); n > 0 && snap.Len() > 0; n-- {
				c := snap.Leaves[r.Intn(snap.Len())].Combo.Clone()
				if claimed[c.Key()] {
					continue
				}
				claimed[c.Key()] = true
				d.Updates = append(d.Updates, LeafUpdate{
					Combo: c, Actual: r.NormFloat64() * 50, Forecast: r.NormFloat64() * 50,
				})
			}
			// Adds: up to 3 random absent (or just-removed) combinations.
			for n := r.Intn(4); n > 0; n-- {
				c := randomCombo()
				k := c.Key()
				removed := false
				for _, rc := range d.Removes {
					if rc.Key() == k {
						removed = true
					}
				}
				if claimed[k] || (present[k] && !removed) {
					continue
				}
				claimed[k] = true
				d.Adds = append(d.Adds, Leaf{
					Combo: c, Actual: r.NormFloat64() * 50, Forecast: r.NormFloat64() * 50,
					Anomalous: r.Intn(2) == 0,
				})
			}
			if _, err := snap.ApplyDelta(d); err != nil {
				t.Fatalf("step %d: generated delta rejected: %v", step, err)
			}
			// Occasionally flip labels through the patch path too.
			if r.Intn(2) == 0 && snap.Len() > 0 {
				var changed []int
				for i := range snap.Leaves {
					if r.Intn(8) == 0 {
						snap.Leaves[i].Anomalous = !snap.Leaves[i].Anomalous
						changed = append(changed, i)
					}
				}
				snap.PatchLabels(changed)
			}
			assertCountsMatchFresh(t, snap, step)
		}

		fresh := freshOf(t, snap)
		attrs := make([]int, nAttr)
		for a := range attrs {
			attrs[a] = a
		}
		var want, got []GroupCount
		for layer := 1; layer <= nAttr; layer++ {
			for _, cuboid := range CuboidsAtLayer(attrs, layer) {
				for _, workers := range []int{1, 4} {
					want, _ = fresh.ScanCuboid(cuboid, want, workers, nil)
					got, _ = snap.ScanCuboid(cuboid, got, workers, nil)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("ScanCuboid %v workers %d: patched %v, fresh %v", cuboid, workers, got, want)
					}
				}
			}
		}
		for _, workers := range []int{1, 4} {
			pp := snap.NewRollupPlan(attrs)
			fp := fresh.NewRollupPlan(attrs)
			if (pp == nil) != (fp == nil) {
				t.Fatal("roll-up materializable on one side only")
			}
			if pp == nil {
				continue
			}
			pp.Run(workers, nil)
			fp.Run(workers, nil)
			for layer := 1; layer <= nAttr; layer++ {
				for _, cuboid := range CuboidsAtLayer(attrs, layer) {
					if pp.Serves(cuboid) != fp.Serves(cuboid) {
						t.Fatalf("cuboid %v: rolled up on one side only", cuboid)
					}
					if !pp.Serves(cuboid) {
						continue
					}
					want = fp.Groups(cuboid, want)
					got = pp.Groups(cuboid, got)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("rollup %v workers %d: patched %v, fresh %v", cuboid, workers, got, want)
					}
				}
			}
			pp.Close()
			fp.Close()
		}
	})
}

// fuzzWideSnapshot is fuzzSnapshot over overflowSchema: a few dozen random
// leaves, always including the two whose wrapped leaf indexes collide.
func fuzzWideSnapshot(seed int64, density, anomRate byte) *Snapshot {
	schema := overflowSchema()
	r := rand.New(rand.NewSource(seed))
	low, high := collidingLeaves()
	combos := []Combination{low, high}
	seen := map[string]bool{low.Key(): true, high.Key(): true}
	for n := int(density % 64); n > 0; n-- {
		c := make(Combination, schema.NumAttributes())
		for a := range c {
			c[a] = int32(r.Intn(schema.Cardinality(a)))
		}
		if !seen[c.Key()] {
			seen[c.Key()] = true
			combos = append(combos, c)
		}
	}
	anom := float64(anomRate%100) / 100
	leaves := make([]Leaf, len(combos))
	for i, c := range combos {
		leaves[i] = Leaf{
			Combo:     c,
			Actual:    r.NormFloat64() * 50,
			Forecast:  r.NormFloat64() * 50,
			Anomalous: r.Float64() < anom,
		}
	}
	snap, err := NewSnapshot(schema, leaves)
	if err != nil {
		panic(err) // the generator only emits valid snapshots
	}
	return snap
}

// assertCountsMatchFresh checks what a continuous tick reads without
// scanning — the per-element leaf counts, the anomalous postings behind the
// per-element anomalous counts, the anomalous total and the root sums —
// against a from-scratch rebuild of the post-delta leaves. The root sums
// must equal, bit for bit, a Matches-filtered sum over the rebuild and the
// rebuild's own Sum, before and after its frame is built.
func assertCountsMatchFresh(t *testing.T, snap *Snapshot, step int) {
	t.Helper()
	fresh := freshOf(t, snap)
	if !reflect.DeepEqual(snap.ElemCounts(), fresh.ElemCounts()) {
		t.Fatalf("step %d: element counts: patched %v, fresh %v", step, snap.ElemCounts(), fresh.ElemCounts())
	}
	if !samePostings(snap.AnomalousPostings(), fresh.AnomalousPostings()) {
		t.Fatalf("step %d: postings diverge", step)
	}
	if got, want := snap.NumAnomalous(), fresh.NumAnomalous(); got != want {
		t.Fatalf("step %d: NumAnomalous: patched %d, fresh %d", step, got, want)
	}
	root := NewRoot(snap.Schema.NumAttributes())
	var wantV, wantF float64
	for _, l := range fresh.Leaves {
		if root.Matches(l.Combo) {
			wantV += l.Actual
			wantF += l.Forecast
		}
	}
	// The patched snapshot's frame is warm, so its root sum reads the value
	// columns; the rebuild's reads its leaves, then its own frame.
	same := func(what string, v, f float64) {
		t.Helper()
		if math.Float64bits(v) != math.Float64bits(wantV) || math.Float64bits(f) != math.Float64bits(wantF) {
			t.Fatalf("step %d: %s root sum (%v, %v), want (%v, %v)", step, what, v, f, wantV, wantF)
		}
	}
	v, f := snap.Sum(root)
	same("patched", v, f)
	v, f = fresh.Sum(root)
	same("rebuilt", v, f)
	fresh.Columns()
	v, f = fresh.Sum(root)
	same("rebuilt columnar", v, f)
}

// TestDeltaJSONRoundTrip pins the delta wire format.
func TestDeltaJSONRoundTrip(t *testing.T) {
	snap := deltaTestSnapshot(t)
	d := Delta{
		Removes: []Combination{{0, 1, 0}},
		Updates: []LeafUpdate{{Combo: Combination{1, 0, 1}, Actual: 12.5, Forecast: 100}},
		Adds:    []Leaf{{Combo: Combination{2, 0, 0}, Actual: 1, Forecast: 2, Anomalous: true}},
	}
	var buf bytes.Buffer
	if err := WriteDeltaJSON(&buf, snap.Schema, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDeltaJSON(&buf, snap.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip:\ngot  %+v\nwant %+v", got, d)
	}
	bad := strings.NewReader(`{"adds":[{"combination":["r1","i1","nope"]}]}`)
	if _, err := ReadDeltaJSON(bad, snap.Schema); err == nil {
		t.Fatal("unknown element name decoded")
	}
}

// BenchmarkDeltaApply measures patching a warm >=100k-leaf snapshot at 10%
// and 1% touched leaves; BenchmarkFullRebuild is the from-scratch cost of
// the same post-delta state (what every tick paid before delta ingestion).
func BenchmarkDeltaApply(b *testing.B) {
	for _, pct := range []int{10, 1} {
		b.Run(fmt.Sprintf("touched=%d%%", pct), func(b *testing.B) {
			snap := benchDeltaSnapshot(b)
			d := benchDelta(snap, pct)
			snap.Columns()
			snap.AnomalousPostings()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := snap.ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFullRebuild(b *testing.B) {
	for _, pct := range []int{10, 1} {
		b.Run(fmt.Sprintf("touched=%d%%", pct), func(b *testing.B) {
			snap := benchDeltaSnapshot(b)
			d := benchDelta(snap, pct)
			snap.Columns()
			snap.AnomalousPostings()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := snap.ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
				// The pre-PR tick: every label/structure cache rebuilt from
				// the leaves.
				snap.InvalidateStructure()
				snap.Columns()
				snap.AnomalousPostings()
			}
		})
	}
}

// benchDeltaSnapshot is a ~115k-leaf dense snapshot (48*20*10*12).
func benchDeltaSnapshot(b testing.TB) *Snapshot {
	b.Helper()
	schema := MustSchema(
		Attribute{Name: "region", Values: elems("R", 48)},
		Attribute{Name: "isp", Values: elems("I", 20)},
		Attribute{Name: "proto", Values: elems("P", 10)},
		Attribute{Name: "site", Values: elems("S", 12)},
	)
	r := rand.New(rand.NewSource(11))
	leaves := make([]Leaf, 0, schema.NumLeaves())
	for a := int32(0); a < 48; a++ {
		for bb := int32(0); bb < 20; bb++ {
			for c := int32(0); c < 10; c++ {
				for d := int32(0); d < 12; d++ {
					leaves = append(leaves, Leaf{
						Combo:     Combination{a, bb, c, d},
						Actual:    100 * r.Float64(),
						Forecast:  100,
						Anomalous: r.Intn(50) == 0,
					})
				}
			}
		}
	}
	snap, err := NewSnapshot(schema, leaves)
	if err != nil {
		b.Fatal(err)
	}
	return snap
}

// benchDelta updates pct percent of the leaves (evenly strided).
func benchDelta(snap *Snapshot, pct int) Delta {
	stride := 100 / pct
	var d Delta
	for i := 0; i < len(snap.Leaves); i += stride {
		d.Updates = append(d.Updates, LeafUpdate{
			Combo:    snap.Leaves[i].Combo.Clone(),
			Actual:   float64(i % 97),
			Forecast: 100,
		})
	}
	return d
}
