package kpi

import (
	"fmt"
	"math/rand"
	"testing"
)

// scanTestSnapshot builds a labeled random snapshot over a 3-attribute
// schema, leaving some leaves absent so group-bys see sparse data.
func scanTestSnapshot(t testing.TB, seed int64) *Snapshot {
	t.Helper()
	s := MustSchema(
		Attribute{Name: "a", Values: []string{"a1", "a2", "a3"}},
		Attribute{Name: "b", Values: []string{"b1", "b2", "b3", "b4"}},
		Attribute{Name: "c", Values: []string{"c1", "c2"}},
	)
	r := rand.New(rand.NewSource(seed))
	var leaves []Leaf
	for x := int32(0); x < 3; x++ {
		for y := int32(0); y < 4; y++ {
			for z := int32(0); z < 2; z++ {
				if r.Float64() < 0.2 {
					continue // sparse: leaf unobserved
				}
				leaves = append(leaves, Leaf{
					Combo:     Combination{x, y, z},
					Actual:    r.Float64() * 100,
					Forecast:  r.Float64() * 100,
					Anomalous: r.Float64() < 0.3,
				})
			}
		}
	}
	snap, err := NewSnapshot(s, leaves)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// wantCounts is the count-only view of the row-wise reference group-by
// every count path is pinned to. An overflowing cuboid's groups are named
// by their first leaf, as ScanCuboid names them.
func wantCounts(s *Snapshot, c Cuboid) []GroupCount {
	var out []GroupCount
	stats, _ := referenceGroupBy(s, c)
	for _, g := range stats {
		out = append(out, GroupCount{Group: g.Group, Total: g.Total, Anomalous: g.Anomalous})
	}
	return out
}

// sameCounts compares two scan outputs, treating nil and empty alike.
func sameCounts(a, b []GroupCount) bool {
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

// hugeDomainSnapshot builds a snapshot whose two-attribute cuboid exceeds
// the dense accumulator limit (forcing the sparse path) while each
// single-attribute cuboid stays dense.
func hugeDomainSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	mk := func(name string, n int) Attribute {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("%s%04d", name, i)
		}
		return Attribute{Name: name, Values: vals}
	}
	s := MustSchema(mk("x", 5000), mk("y", 5000))
	r := rand.New(rand.NewSource(11))
	seen := map[[2]int32]bool{}
	var leaves []Leaf
	for len(leaves) < 300 {
		k := [2]int32{int32(r.Intn(5000)), int32(r.Intn(5000))}
		if seen[k] {
			continue
		}
		seen[k] = true
		leaves = append(leaves, Leaf{
			Combo:     Combination{k[0], k[1]},
			Actual:    r.Float64(),
			Forecast:  r.Float64(),
			Anomalous: r.Float64() < 0.3,
		})
	}
	snap, err := NewSnapshot(s, leaves)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestScanCuboidMatchesGroupBy pins ScanCuboid to GroupBy: same groups,
// same order, same support counts, for every cuboid of the lattice at
// workers 1/2/4/8 — on small dense snapshots, on one large enough for the
// dense scan to partition across workers, on sparse domains, and on
// cuboids whose indexes overflow.
func TestScanCuboidMatchesGroupBy(t *testing.T) {
	snaps := []*Snapshot{bigScanSnapshot(t), hugeDomainSnapshot(t)}
	low, high := collidingLeaves()
	wide, err := NewSnapshot(overflowSchema(), []Leaf{
		{Combo: high, Actual: 1, Forecast: 2},
		{Combo: low, Actual: 3, Forecast: 4, Anomalous: true},
		{Combo: Combination{0, 1, 0, 7, 7}, Actual: 5, Forecast: 6, Anomalous: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	snaps = append(snaps, wide)
	for seed := int64(0); seed < 5; seed++ {
		snaps = append(snaps, scanTestSnapshot(t, seed))
	}
	var got []GroupCount
	for si, snap := range snaps {
		attrs := make([]int, snap.Schema.NumAttributes())
		for a := range attrs {
			attrs[a] = a
		}
		for _, cuboid := range AllCuboids(attrs) {
			want := wantCounts(snap, cuboid)
			for _, workers := range []int{1, 2, 4, 8} {
				var ok bool
				got, ok = snap.ScanCuboid(cuboid, got, workers, nil)
				if !ok {
					t.Fatalf("snapshot %d cuboid %v workers %d: scan aborted without a halt", si, cuboid, workers)
				}
				if !sameCounts(got, want) {
					t.Fatalf("snapshot %d cuboid %v workers %d:\n scan %v\n want %v", si, cuboid, workers, got, want)
				}
			}
		}
	}
}

// TestScanCuboidSparsePath forces the map-based path with a huge-domain
// schema and checks it agrees with GroupBy.
func TestScanCuboidSparsePath(t *testing.T) {
	mk := func(name string, n int) Attribute {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = name + string(rune('a'+i/26)) + string(rune('a'+i%26))
		}
		return Attribute{Name: name, Values: vals}
	}
	s := MustSchema(mk("x", 500), mk("y", 400), mk("z", 300))
	r := rand.New(rand.NewSource(7))
	var leaves []Leaf
	seen := map[[3]int32]bool{}
	for len(leaves) < 50 {
		c := [3]int32{int32(r.Intn(500)), int32(r.Intn(400)), int32(r.Intn(300))}
		if seen[c] {
			continue
		}
		seen[c] = true
		leaves = append(leaves, Leaf{
			Combo:     Combination{c[0], c[1], c[2]},
			Actual:    1,
			Forecast:  1,
			Anomalous: r.Intn(2) == 0,
		})
	}
	snap, err := NewSnapshot(s, leaves)
	if err != nil {
		t.Fatal(err)
	}
	cuboid := Cuboid{0, 1, 2}
	if size := snap.Indexer(cuboid).Size(); size <= denseGroupByLimit(len(leaves)) {
		t.Fatalf("domain %d does not exercise the sparse path", size)
	}
	stats := snap.GroupBy(cuboid)
	scan, _ := snap.ScanCuboid(cuboid, nil, 4, nil)
	if len(scan) != len(stats) {
		t.Fatalf("%d scanned groups, %d group-by groups", len(scan), len(stats))
	}
	for i := range scan {
		if scan[i].Group != stats[i].Group ||
			scan[i].Total != stats[i].Total || scan[i].Anomalous != stats[i].Anomalous {
			t.Errorf("group %d: scan %+v does not match stats %+v", i, scan[i], stats[i])
		}
		if scan[i].Confidence() != stats[i].Confidence() {
			t.Errorf("group %d: confidence mismatch", i)
		}
	}
}

// TestLayerScanMatchesScanCuboid walks the lattice one layer at a time, the
// way the search scans the cuboids the roll-up does not serve: for every
// cuboid of every layer, the scan at workers 2/4/8 must be identical to the
// single-worker scan — same groups, same order, same counts — and each
// cuboid's groups must account for every leaf exactly once.
func TestLayerScanMatchesScanCuboid(t *testing.T) {
	snaps := []*Snapshot{bigScanSnapshot(t)}
	for seed := int64(0); seed < 5; seed++ {
		snaps = append(snaps, scanTestSnapshot(t, seed))
	}
	var got []GroupCount
	for si, snap := range snaps {
		attrs := make([]int, snap.Schema.NumAttributes())
		for a := range attrs {
			attrs[a] = a
		}
		for layer := 1; layer <= len(attrs); layer++ {
			for _, cuboid := range CuboidsAtLayer(attrs, layer) {
				want, ok := snap.ScanCuboid(cuboid, nil, 1, nil)
				if !ok {
					t.Fatalf("snapshot %d layer %d cuboid %v: single-worker scan aborted without a halt", si, layer, cuboid)
				}
				total := 0
				for _, g := range want {
					total += g.Total
				}
				if total != snap.Len() {
					t.Fatalf("snapshot %d cuboid %v: groups cover %d leaves, want %d", si, cuboid, total, snap.Len())
				}
				for _, workers := range []int{2, 4, 8} {
					got, ok = snap.ScanCuboid(cuboid, got, workers, nil)
					if !ok {
						t.Fatalf("snapshot %d layer %d cuboid %v workers %d: scan aborted without a halt", si, layer, cuboid, workers)
					}
					if !sameCounts(got, want) {
						t.Fatalf("snapshot %d layer %d cuboid %v workers %d:\n scan %v\n want %v", si, layer, cuboid, workers, got, want)
					}
				}
			}
		}
	}
}

// TestLayerScanSparseFallback checks that within one layer each cuboid
// picks its own path: on the 5000x5000 huge-domain snapshot the layer-2
// cuboid's domain is past the dense limit and falls back to the map-based
// scan, while the layer-1 cuboids stay dense, and both paths agree with
// GroupBy at every worker count.
func TestLayerScanSparseFallback(t *testing.T) {
	snap := hugeDomainSnapshot(t)
	limit := denseGroupByLimit(snap.Len())
	attrs := []int{0, 1}
	for layer, wantDense := range map[int]bool{1: true, 2: false} {
		for _, cuboid := range CuboidsAtLayer(attrs, layer) {
			size := snap.Indexer(cuboid).Size()
			if dense := size >= 0 && size <= limit; dense != wantDense {
				t.Fatalf("layer %d cuboid %v: domain %d against limit %d, dense %v, want %v",
					layer, cuboid, size, limit, dense, wantDense)
			}
			want := wantCounts(snap, cuboid)
			for _, workers := range []int{1, 4} {
				got, ok := snap.ScanCuboid(cuboid, nil, workers, nil)
				if !ok {
					t.Fatalf("layer %d cuboid %v workers %d: scan aborted without a halt", layer, cuboid, workers)
				}
				if !sameCounts(got, want) {
					t.Fatalf("layer %d cuboid %v workers %d:\n scan %v\n want %v", layer, cuboid, workers, got, want)
				}
			}
		}
	}
}

// TestLayerScanHaltAborts checks a tripped halt abandons every scan of a
// layer — ok=false and no groups, even into a dst that held a previous
// result — and that the scans after the abort, reusing the same dst and
// the pooled accumulators, still count every cuboid from zero.
func TestLayerScanHaltAborts(t *testing.T) {
	tripped := func() bool { return true }
	for si, snap := range []*Snapshot{scanTestSnapshot(t, 0), bigScanSnapshot(t)} {
		attrs := make([]int, snap.Schema.NumAttributes())
		for a := range attrs {
			attrs[a] = a
		}
		for _, workers := range []int{1, 2, 4} {
			for layer := 1; layer <= len(attrs); layer++ {
				cuboids := CuboidsAtLayer(attrs, layer)
				var dst []GroupCount
				for _, cuboid := range cuboids {
					dst, _ = snap.ScanCuboid(cuboid, dst, workers, nil)
					var ok bool
					dst, ok = snap.ScanCuboid(cuboid, dst, workers, tripped)
					if ok {
						t.Fatalf("snapshot %d workers %d cuboid %v: scan completed under an always-tripped halt", si, workers, cuboid)
					}
					if len(dst) != 0 {
						t.Fatalf("snapshot %d workers %d cuboid %v: aborted scan returned %d groups", si, workers, cuboid, len(dst))
					}
				}
				for _, cuboid := range cuboids {
					var ok bool
					dst, ok = snap.ScanCuboid(cuboid, dst, workers, nil)
					if !ok {
						t.Fatalf("snapshot %d workers %d cuboid %v: scan after an abort did not complete", si, workers, cuboid)
					}
					if want := wantCounts(snap, cuboid); !sameCounts(dst, want) {
						t.Fatalf("snapshot %d workers %d cuboid %v after an abort:\n scan %v\n want %v", si, workers, cuboid, dst, want)
					}
				}
			}
		}
	}
}

// TestScanCuboidWorkerPanic checks a panic on a scan worker goroutine is
// rethrown on the calling goroutine as *ScanPanic instead of killing the
// process. The snapshot is poisoned via a struct literal (bypassing
// NewSnapshot validation) with an element code outside its attribute's
// cardinality, and is large enough that the scan actually forks workers.
func TestScanCuboidWorkerPanic(t *testing.T) {
	s := MustSchema(
		Attribute{Name: "a", Values: []string{"a1", "a2"}},
		Attribute{Name: "b", Values: []string{"b1", "b2"}},
	)
	// >= 2*haltStride leaves so workers > 1 actually partitions the pass.
	n := 2*haltStride + 100
	leaves := make([]Leaf, n)
	for i := range leaves {
		leaves[i] = Leaf{Combo: Combination{int32(i % 2), int32(i / 2 % 2)}}
	}
	leaves[n-1].Combo = Combination{9, 0} // out of range for cardinality 2
	snap := &Snapshot{Schema: s, Leaves: leaves}

	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers %d: poisoned scan did not panic", workers)
				}
				if workers > 1 {
					if _, ok := r.(*ScanPanic); !ok {
						t.Fatalf("workers %d: recovered %T, want *ScanPanic", workers, r)
					}
				}
			}()
			snap.ScanCuboid(Cuboid{0}, nil, workers, nil)
		}()
	}
}

// TestScanCuboidReusesPooledBuffers checks the dense scan recycles its
// accumulators: a scan after a larger one reuses the dirtied pooled
// arrays yet still counts from zero, and a steady-state scan into a
// grown dst allocates nothing.
func TestScanCuboidReusesPooledBuffers(t *testing.T) {
	snap := bigScanSnapshot(t)
	small := scanTestSnapshot(t, 4)
	var buf []GroupCount
	for rep := 0; rep < 3; rep++ {
		for _, workers := range []int{1, 2} {
			buf, _ = snap.ScanCuboid(Cuboid{0, 1}, buf, workers, nil)
			for _, c := range AllCuboids([]int{0, 1, 2}) {
				buf, _ = small.ScanCuboid(c, buf, workers, nil)
				if want := wantCounts(small, c); !sameCounts(buf, want) {
					t.Fatalf("rep %d workers %d cuboid %v: %v after recycling, want %v", rep, workers, c, buf, want)
				}
			}
		}
	}
	if raceEnabled {
		return // the race detector makes sync.Pool drop items at random
	}
	c := Cuboid{0, 1}
	buf, _ = snap.ScanCuboid(c, buf, 1, nil)
	allocs := testing.AllocsPerRun(50, func() {
		buf, _ = snap.ScanCuboid(c, buf, 1, nil)
	})
	if allocs != 0 {
		t.Fatalf("steady-state scan allocated %v times per run, want 0", allocs)
	}
}

// TestGroupByAppendReusesBuffer checks the destination buffer is recycled
// and that repeated calls return identical content.
func TestGroupByAppendReusesBuffer(t *testing.T) {
	snap := scanTestSnapshot(t, 42)
	cuboid := Cuboid{0, 1}
	first := snap.GroupByAppend(cuboid, nil)
	reused := snap.GroupByAppend(cuboid, first)
	if len(reused) != len(first) {
		t.Fatalf("reused call returned %d groups, first %d", len(reused), len(first))
	}
	want := snap.GroupBy(cuboid)
	for i := range want {
		if reused[i] != want[i] {
			t.Errorf("group %d mismatch after reuse", i)
		}
	}
}

// TestIndexerCacheReturnsSameInstance checks Indexer caches per cuboid and
// that DecodeInto matches Combination.
func TestIndexerCacheReturnsSameInstance(t *testing.T) {
	snap := scanTestSnapshot(t, 1)
	c := Cuboid{0, 2}
	ix1 := snap.Indexer(c)
	ix2 := snap.Indexer(Cuboid{0, 2})
	if ix1 != ix2 {
		t.Error("Indexer did not return the cached instance")
	}
	if snap.Indexer(Cuboid{1}) == ix1 {
		t.Error("distinct cuboids share an indexer")
	}
	dst := NewRoot(3)
	for g := 0; g < ix1.Size(); g++ {
		ix1.DecodeInto(dst, g)
		if want := ix1.Combination(g); !dst.Equal(want) {
			t.Fatalf("DecodeInto(%d) = %v, want %v", g, dst, want)
		}
	}
}

// TestAnomalousPostingsInvertAnomalousLeaves checks the inverted lists
// cover exactly the anomalous leaf set, per attribute.
func TestAnomalousPostingsInvertAnomalousLeaves(t *testing.T) {
	snap := scanTestSnapshot(t, 3)
	anom := snap.AnomalousLeafSet()
	if len(anom) != snap.NumAnomalous() {
		t.Fatalf("AnomalousLeafSet has %d entries, NumAnomalous %d", len(anom), snap.NumAnomalous())
	}
	postings := snap.AnomalousPostings()
	for a := 0; a < snap.Schema.NumAttributes(); a++ {
		var total int
		for code, list := range postings[a] {
			for _, i := range list {
				if !snap.Leaves[i].Anomalous {
					t.Errorf("attr %d code %d: leaf %d is not anomalous", a, code, i)
				}
				if snap.Leaves[i].Combo[a] != int32(code) {
					t.Errorf("attr %d code %d: leaf %d carries code %d", a, code, i, snap.Leaves[i].Combo[a])
				}
			}
			total += len(list)
		}
		if total != len(anom) {
			t.Errorf("attr %d postings cover %d leaves, want %d", a, total, len(anom))
		}
	}
}

// TestInvalidateLabelsRefreshesCaches checks that a relabel is reflected
// by the cached views built before it.
func TestInvalidateLabelsRefreshesCaches(t *testing.T) {
	snap := scanTestSnapshot(t, 9)
	snap.AnomalousLeafSet()
	snap.AnomalousPostings()
	snap.Relabel(func(float64, float64) bool { return true })
	if got := len(snap.AnomalousLeafSet()); got != snap.Len() {
		t.Fatalf("after invalidation AnomalousLeafSet has %d entries, want %d", got, snap.Len())
	}
	if got := len(snap.AnomalousPostings()[0][0]); got == 0 {
		t.Error("postings not rebuilt after invalidation")
	}
}

// TestScanCuboidConcurrent exercises the snapshot caches and pooled
// accumulators from many goroutines (run with -race), on a dense snapshot
// and on one whose two-attribute cuboid is numbered by Group.
func TestScanCuboidConcurrent(t *testing.T) {
	for _, snap := range []*Snapshot{scanTestSnapshot(t, 11), hugeDomainSnapshot(t)} {
		attrs := make([]int, snap.Schema.NumAttributes())
		for a := range attrs {
			attrs[a] = a
		}
		cuboids := AllCuboids(attrs)
		done := make(chan struct{})
		for w := 0; w < 8; w++ {
			go func() {
				defer func() { done <- struct{}{} }()
				var buf []GroupCount
				for rep := 0; rep < 50; rep++ {
					for _, c := range cuboids {
						buf, _ = snap.ScanCuboid(c, buf, 1+rep%3, nil)
						_ = snap.AnomalousPostings()
					}
				}
			}()
		}
		for w := 0; w < 8; w++ {
			<-done
		}
	}
}
