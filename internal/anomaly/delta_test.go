package anomaly

import (
	"testing"

	"repro/internal/kpi"
)

// TestLabelDeltaMatchesFullLabel: relabeling only the touched leaves after a
// delta must land on exactly the labels a full Label pass produces, with the
// caches patched rather than rebuilt.
func TestLabelDeltaMatchesFullLabel(t *testing.T) {
	schema := kpi.MustSchema(
		kpi.Attribute{Name: "region", Values: []string{"r1", "r2", "r3"}},
		kpi.Attribute{Name: "isp", Values: []string{"i1", "i2"}},
	)
	mkLeaves := func() []kpi.Leaf {
		return []kpi.Leaf{
			{Combo: kpi.Combination{0, 0}, Actual: 100, Forecast: 100},
			{Combo: kpi.Combination{0, 1}, Actual: 100, Forecast: 100},
			{Combo: kpi.Combination{1, 0}, Actual: 100, Forecast: 100},
			{Combo: kpi.Combination{1, 1}, Actual: 100, Forecast: 100},
			{Combo: kpi.Combination{2, 0}, Actual: 100, Forecast: 100},
			{Combo: kpi.Combination{2, 1}, Actual: 100, Forecast: 100},
		}
	}
	det := DefaultRelativeDeviation()
	snap, err := kpi.NewSnapshot(schema, mkLeaves())
	if err != nil {
		t.Fatal(err)
	}
	Label(snap, det)
	snap.Columns()
	snap.AnomalousPostings()

	// A delta drops two leaves' actuals below threshold and heals nothing.
	d := kpi.Delta{Updates: []kpi.LeafUpdate{
		{Combo: kpi.Combination{0, 1}, Actual: 40, Forecast: 100},
		{Combo: kpi.Combination{2, 0}, Actual: 50, Forecast: 100},
		{Combo: kpi.Combination{1, 1}, Actual: 99, Forecast: 100}, // stays normal
	}}
	res, err := snap.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	changed := LabelDelta(snap, det, res.Touched)
	if len(changed) != 2 {
		t.Fatalf("LabelDelta flipped %v, want 2 leaves", changed)
	}

	// Reference: the same post-delta leaves through the full Label pass.
	want, err := kpi.NewSnapshot(schema, snap.Clone().Leaves)
	if err != nil {
		t.Fatal(err)
	}
	Label(want, det)
	if got, exp := snap.NumAnomalous(), want.NumAnomalous(); got != exp {
		t.Fatalf("anomalous count %d, want %d", got, exp)
	}
	gotSet, wantSet := snap.AnomalousLeafSet(), want.AnomalousLeafSet()
	if len(gotSet) != len(wantSet) {
		t.Fatalf("anomalous set %v, want %v", gotSet, wantSet)
	}
	for i := range wantSet {
		if gotSet[i] != wantSet[i] {
			t.Fatalf("anomalous set %v, want %v", gotSet, wantSet)
		}
	}
	if got, exp := snap.Columns().NumAnomalous(), want.Columns().NumAnomalous(); got != exp {
		t.Fatalf("columns anomalous count %d, want %d", got, exp)
	}

	// Healing tick: the next delta restores one leaf; its label flips back.
	res, err = snap.ApplyDelta(kpi.Delta{Updates: []kpi.LeafUpdate{
		{Combo: kpi.Combination{0, 1}, Actual: 100, Forecast: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}
	changed = LabelDelta(snap, det, res.Touched)
	if len(changed) != 1 {
		t.Fatalf("healing tick flipped %v, want 1 leaf", changed)
	}
	if snap.Leaves[changed[0]].Anomalous {
		t.Fatal("healed leaf still labeled anomalous")
	}

	// No-op tick: values move but stay on the same side of the threshold.
	res, err = snap.ApplyDelta(kpi.Delta{Updates: []kpi.LeafUpdate{
		{Combo: kpi.Combination{1, 1}, Actual: 98, Forecast: 100},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if changed = LabelDelta(snap, det, res.Touched); len(changed) != 0 {
		t.Fatalf("no-op tick flipped %v", changed)
	}
}
