package kpi

import (
	"fmt"
	"math"
	"testing"
)

func buildTestTable(t *testing.T) *Table {
	t.Helper()
	s := testSchema(t)
	var combos []Combination
	for l := int32(0); l < 3; l++ {
		for a := int32(0); a < 2; a++ {
			for o := int32(0); o < 2; o++ {
				for w := int32(0); w < 2; w++ {
					combos = append(combos, Combination{l, a, o, w})
				}
			}
		}
	}
	tbl, err := NewTable(s, combos)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	requests := make([]float64, len(combos))
	hits := make([]float64, len(combos))
	for i := range combos {
		requests[i] = float64(100 + i)
		hits[i] = float64(80 + i/2)
	}
	if err := tbl.SetColumn("requests", requests); err != nil {
		t.Fatalf("SetColumn: %v", err)
	}
	if err := tbl.SetColumn("hits", hits); err != nil {
		t.Fatalf("SetColumn: %v", err)
	}
	return tbl
}

func TestNewTableRejectsNonLeaves(t *testing.T) {
	s := testSchema(t)
	if _, err := NewTable(s, []Combination{{0, Wildcard, 0, 0}}); err == nil {
		t.Error("NewTable accepted a wildcard row")
	}
	if _, err := NewTable(s, []Combination{{0, 0, 0, 0}, {0, 0, 0, 0}}); err == nil {
		t.Error("NewTable accepted duplicate rows")
	}
}

func TestSetColumnLengthCheck(t *testing.T) {
	tbl := buildTestTable(t)
	if err := tbl.SetColumn("bad", []float64{1}); err == nil {
		t.Error("SetColumn accepted a short column")
	}
}

func TestDeriveRatioColumn(t *testing.T) {
	tbl := buildTestTable(t)
	err := tbl.Derive("hit_ratio", []string{"hits", "requests"}, func(v []float64) float64 {
		if v[1] == 0 {
			return 0
		}
		return v[0] / v[1]
	})
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	ratio, ok := tbl.Column("hit_ratio")
	if !ok {
		t.Fatal("derived column missing")
	}
	hits, _ := tbl.Column("hits")
	reqs, _ := tbl.Column("requests")
	for i := range ratio {
		want := hits[i] / reqs[i]
		if math.Abs(ratio[i]-want) > 1e-12 {
			t.Fatalf("row %d: ratio = %v, want %v", i, ratio[i], want)
		}
	}
}

func TestDeriveUnknownColumn(t *testing.T) {
	tbl := buildTestTable(t)
	err := tbl.Derive("x", []string{"nope"}, func(v []float64) float64 { return 0 })
	if err == nil {
		t.Error("Derive accepted an unknown source column")
	}
}

func TestColumnsSorted(t *testing.T) {
	tbl := buildTestTable(t)
	got := tbl.Columns()
	want := []string{"hits", "requests"}
	if len(got) != len(want) {
		t.Fatalf("Columns = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Columns[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSnapshotOf(t *testing.T) {
	tbl := buildTestTable(t)
	snap, err := tbl.SnapshotOf("hits", "requests")
	if err != nil {
		t.Fatalf("SnapshotOf: %v", err)
	}
	if snap.Len() != tbl.Len() {
		t.Fatalf("snapshot len = %d, want %d", snap.Len(), tbl.Len())
	}
	hits, _ := tbl.Column("hits")
	reqs, _ := tbl.Column("requests")
	for i, l := range snap.Leaves {
		if l.Actual != hits[i] || l.Forecast != reqs[i] {
			t.Fatalf("leaf %d: (%v, %v), want (%v, %v)", i, l.Actual, l.Forecast, hits[i], reqs[i])
		}
		if l.Anomalous {
			t.Fatalf("leaf %d labeled anomalous by default", i)
		}
	}
	if _, err := tbl.SnapshotOf("nope", "requests"); err == nil {
		t.Error("SnapshotOf accepted an unknown column")
	}
}

func TestAggregateByAdditivity(t *testing.T) {
	tbl := buildTestTable(t)
	sums, err := tbl.AggregateBy(Cuboid{0}, []string{"requests", "hits"})
	if err != nil {
		t.Fatalf("AggregateBy: %v", err)
	}
	if len(sums) != 3 {
		t.Fatalf("got %d groups, want 3", len(sums))
	}
	// Total across groups must equal the column totals (additivity of
	// fundamental KPIs, Fig. 4).
	reqs, _ := tbl.Column("requests")
	var total float64
	for _, v := range reqs {
		total += v
	}
	var groupTotal float64
	for _, s := range sums {
		groupTotal += s[0]
	}
	if math.Abs(total-groupTotal) > 1e-9 {
		t.Errorf("aggregation not additive: %v vs %v", groupTotal, total)
	}
	if _, err := tbl.AggregateBy(Cuboid{0}, []string{"nope"}); err == nil {
		t.Error("AggregateBy accepted an unknown column")
	}
}

// SnapshotOf pairs an actual column with a forecast column into a Snapshot
// ready for anomaly detection and localization. Labels start false.
func (t *Table) SnapshotOf(actualCol, forecastCol string) (*Snapshot, error) {
	av, ok := t.columns[actualCol]
	if !ok {
		return nil, fmt.Errorf("kpi: no column %q", actualCol)
	}
	fv, ok := t.columns[forecastCol]
	if !ok {
		return nil, fmt.Errorf("kpi: no column %q", forecastCol)
	}
	leaves := make([]Leaf, t.Len())
	for i := range leaves {
		leaves[i] = Leaf{Combo: t.Combos[i], Actual: av[i], Forecast: fv[i]}
	}
	return NewSnapshot(t.Schema, leaves)
}
