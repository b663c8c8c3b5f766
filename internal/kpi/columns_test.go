package kpi

import "testing"

// TestEncodeColumnsRoundTrip checks the dictionary encoding is lossless:
// every leaf decodes back identical from the columns.
func TestEncodeColumnsRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		snap := scanTestSnapshot(t, seed)
		cols := EncodeColumns(snap)
		if cols.Len() != snap.Len() {
			t.Fatalf("seed %d: %d encoded leaves, want %d", seed, cols.Len(), snap.Len())
		}
		for i := range snap.Leaves {
			want := snap.Leaves[i]
			got := cols.Leaf(i)
			if !got.Combo.Equal(want.Combo) || got.Actual != want.Actual ||
				got.Forecast != want.Forecast || got.Anomalous != want.Anomalous {
				t.Fatalf("seed %d leaf %d: decoded %+v, want %+v", seed, i, got, want)
			}
		}
	}
}

// TestColumnsBitsetMatchesLabels pins the packed bitset and its cached count
// to the leaves' Anomalous labels.
func TestColumnsBitsetMatchesLabels(t *testing.T) {
	snap := scanTestSnapshot(t, 3)
	cols := snap.Columns()
	n := 0
	for i := range snap.Leaves {
		if cols.Anomalous(i) != snap.Leaves[i].Anomalous {
			t.Fatalf("leaf %d: bitset says %v, label says %v",
				i, cols.Anomalous(i), snap.Leaves[i].Anomalous)
		}
		if snap.Leaves[i].Anomalous {
			n++
		}
	}
	if cols.NumAnomalous() != n {
		t.Fatalf("NumAnomalous() = %d, want %d", cols.NumAnomalous(), n)
	}
}

// TestColumnsCached checks Snapshot.Columns returns the same store across
// calls until labels are invalidated.
func TestColumnsCached(t *testing.T) {
	snap := scanTestSnapshot(t, 1)
	if snap.Columns() != snap.Columns() {
		t.Fatal("Columns() rebuilt the store on a second call")
	}
}

// EncodeColumns builds a fresh, uncached columnar encoding of the snapshot.
// Most callers want the cached Snapshot.Columns instead; this entry point
// exists for tests and tools that need an encoding independent of the
// snapshot's cache state.
func EncodeColumns(s *Snapshot) *Columns {
	frame := buildColFrame(s.Schema, s.Leaves)
	var anomIdx []int
	for i := range s.Leaves {
		if s.Leaves[i].Anomalous {
			anomIdx = append(anomIdx, i)
		}
	}
	return newColumns(s.Schema, frame, len(s.Leaves), anomIdx)
}

// Elem returns attribute a's dense element-ID column; treat it as
// read-only.
func (c *Columns) Elem(a int) []uint32 { return c.frame.elem[a] }
