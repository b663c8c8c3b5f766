package main

import (
	"bytes"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/kpi"
)

func worldJSON(t *testing.T, w world, seed int64) ([]byte, int) {
	t.Helper()
	c, err := w.generate(structureSeed)
	if err != nil {
		t.Fatal(err)
	}
	c = revalue(c, seed)
	if len(c.RAPs) != w.raps {
		t.Fatalf("%s: %d RAPs, want %d", w.name, len(c.RAPs), w.raps)
	}
	for _, r := range c.RAPs {
		if r.Layer() != w.rapDim {
			t.Fatalf("%s: RAP of dimension %d, want %d", w.name, r.Layer(), w.rapDim)
		}
	}
	// The labels are exactly what the server's default detector gives.
	relabeled := c.Snapshot.Clone()
	anomaly.Label(relabeled, anomaly.DefaultRelativeDeviation())
	for i, l := range relabeled.Leaves {
		if l.Anomalous != c.Snapshot.Leaves[i].Anomalous {
			t.Fatalf("%s: leaf %d labeled %v, detector says %v", w.name, i, c.Snapshot.Leaves[i].Anomalous, l.Anomalous)
		}
	}
	var buf bytes.Buffer
	if err := kpi.WriteJSON(&buf, c.Snapshot); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), c.Snapshot.Len()
}

func TestWorldsAreByteIdenticalPerSeed(t *testing.T) {
	for _, tc := range []struct {
		w        world
		min, max int
	}{
		{sparseWorld, 26000, 29500}, // 1.5% of 1,843,200
		{deepWorld, 7776, 7776},
	} {
		a, n := worldJSON(t, tc.w, 7)
		b, _ := worldJSON(t, tc.w, 7)
		c, _ := worldJSON(t, tc.w, 8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", tc.w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same bytes", tc.w.name)
		}
		if n < tc.min || n > tc.max {
			t.Errorf("%s: %d leaves, want %d..%d", tc.w.name, n, tc.min, tc.max)
		}
	}
}
