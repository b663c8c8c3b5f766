package kpi

import (
	"fmt"
	"reflect"
	"testing"
)

// overflowSchema has five attributes of 8000 elements each: its product,
// 8000^5 ≈ 3.3e19, exceeds 2^64, so the all-attributes cuboid's
// mixed-radix indexes wrap and distinct leaves can share one.
func overflowSchema() *Schema {
	attrs := make([]Attribute, 5)
	for a := range attrs {
		vals := make([]string, 8000)
		for i := range vals {
			vals[i] = fmt.Sprintf("e%d", i)
		}
		attrs[a] = Attribute{Name: fmt.Sprintf("a%d", a), Values: vals}
	}
	return MustSchema(attrs...)
}

// collidingLeaves returns two leaves whose all-attributes indexes are 0 and
// 2^64 — equal once wrapped. 2^64 in radix 8000 is (4503, 4797, 151, 5693,
// 7616).
func collidingLeaves() (low, high Combination) {
	return Combination{0, 0, 0, 0, 0}, Combination{4503, 4797, 151, 5693, 7616}
}

// TestOverflowGroupsDoNotCollide is the regression test for wrapped group
// keys: on a cuboid whose indexer overflows, the sparse group-by and the
// count-only scan must keep two leaves with colliding wrapped indexes in
// separate groups, in projected-combination order, decodable back to their
// combinations.
func TestOverflowGroupsDoNotCollide(t *testing.T) {
	schema := overflowSchema()
	low, high := collidingLeaves()
	snap, err := NewSnapshot(schema, []Leaf{
		{Combo: high, Actual: 1, Forecast: 2},
		{Combo: low, Actual: 3, Forecast: 4, Anomalous: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	all := Cuboid{0, 1, 2, 3, 4}
	ix := snap.Indexer(all)
	if ix.Size() >= 0 || ix.Index(low) != ix.Index(high) {
		t.Fatalf("premise: size %d, wrapped indexes %d and %d", ix.Size(), ix.Index(low), ix.Index(high))
	}

	counts, _ := snap.ScanCuboid(all, nil, 1, nil)
	if len(counts) != 2 {
		t.Fatalf("ScanCuboid merged colliding groups: %+v", counts)
	}
	probe := make(Combination, len(all))
	for i, want := range []struct {
		combo            Combination
		total, anomalous int
	}{{low, 1, 1}, {high, 1, 0}} {
		g := counts[i]
		snap.DecodeGroup(ix, g.Group, probe)
		if !probe.Equal(want.combo) || g.Total != want.total || g.Anomalous != want.anomalous {
			t.Fatalf("ScanCuboid group %d: %v %+v, want %v total %d anomalous %d",
				i, probe, g, want.combo, want.total, want.anomalous)
		}
	}

	stats := snap.GroupBy(all)
	want := []GroupStats{
		{Combo: low, Total: 1, Anomalous: 1, Actual: 3, Forecast: 4},
		{Combo: high, Total: 1, Actual: 1, Forecast: 2},
	}
	if !reflect.DeepEqual(stats, want) {
		t.Fatalf("GroupBy = %+v, want %+v", stats, want)
	}
}

// TestOverflowLeafPos checks the leaf-position index falls back to byte keys
// on an overflowing schema, where packed leaf indexes would collide, and
// that a delta against the colliding leaves resolves each one.
func TestOverflowLeafPos(t *testing.T) {
	low, high := collidingLeaves()
	snap, err := NewSnapshot(overflowSchema(), []Leaf{{Combo: low, Forecast: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := snap.ApplyDelta(Delta{Adds: []Leaf{{Combo: high, Actual: 5, Forecast: 5}}}); err != nil {
		t.Fatalf("add of a leaf whose wrapped index collides: %v", err)
	}
	res, err := snap.ApplyDelta(Delta{
		Removes: []Combination{low},
		Updates: []LeafUpdate{{Combo: high, Actual: 7, Forecast: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != 1 || !snap.Leaves[0].Combo.Equal(high) || snap.Leaves[0].Actual != 7 || res.Touched[0] != 0 {
		t.Fatalf("after remove+update: leaves %+v, touched %v", snap.Leaves, res.Touched)
	}
	snap.mu.Lock()
	pos := snap.leafPosLocked()
	snap.mu.Unlock()
	if pos.packed != nil || pos.len() != 1 {
		t.Fatalf("leafPos: packed %v, %d entries", pos.packed != nil, pos.len())
	}
}
