package kpi

import (
	"reflect"
	"testing"
)

// warmAll builds every cache a snapshot keeps: the columnar store, the
// postings, the element counts, the leaf positions, the roll-up totals of
// every cuboid over all attributes and (through the frame) the root sum.
// It first applies an empty delta, since only a snapshot ApplyDelta
// patches keeps roll-up totals.
func warmAll(t testing.TB, s *Snapshot) {
	patchNothing(t, s)
	s.Columns()
	s.AnomalousPostings()
	s.ElemCounts()
	s.mu.Lock()
	s.leafPosLocked()
	s.mu.Unlock()
	s.Sum(NewRoot(s.Schema.NumAttributes()))
	seedTotals(t, s, allAttrs(s))
}

// TestWritersMatchFresh runs each writer on a snapshot whose every cache is
// warm and checks every cache-backed read against NewSnapshot over a copy
// of the written leaves: the anomalous set, postings, columns, element
// counts, leaf positions, root sums, group-bys, cuboid scans and the
// roll-up served from the kept totals. Every writer advances the generation
// and keeps the columnar frame.
func TestWritersMatchFresh(t *testing.T) {
	writers := []struct {
		name  string
		write func(t *testing.T, s *Snapshot)
	}{
		{"relabel", func(t *testing.T, s *Snapshot) {
			want := 0
			for _, l := range s.Leaves {
				if l.Actual < 0.5*l.Forecast {
					want++
				}
			}
			if n := s.Relabel(func(actual, forecast float64) bool { return actual < 0.5*forecast }); n != want {
				t.Fatalf("Relabel counted %d anomalous leaves, want %d", n, want)
			}
		}},
		{"relabel_touched", func(t *testing.T, s *Snapshot) {
			detect := func(actual, forecast float64) bool { return actual < 0.5*forecast }
			var touched, want []int
			for i, l := range s.Leaves {
				if i%3 != 0 {
					continue
				}
				touched = append(touched, i)
				if detect(l.Actual, l.Forecast) != l.Anomalous {
					want = append(want, i)
				}
			}
			if len(want) == 0 {
				t.Fatal("test snapshot flips no touched leaf")
			}
			if got := s.RelabelTouched(detect, touched); !reflect.DeepEqual(got, want) {
				t.Fatalf("RelabelTouched flipped %v, want %v", got, want)
			}
		}},
		{"rewrite", func(t *testing.T, s *Snapshot) {
			next := 0
			s.Rewrite(func(l Leaf) (float64, float64, bool) {
				if !l.Combo.Equal(s.Leaves[next].Combo) {
					t.Fatalf("Rewrite visited %v at step %d", l.Combo, next)
				}
				next++
				return 2 * l.Actual, l.Forecast + 1, !l.Anomalous
			})
			if next != s.Len() {
				t.Fatalf("Rewrite visited %d leaves, want %d", next, s.Len())
			}
		}},
		{"apply_delta", func(t *testing.T, s *Snapshot) {
			gone := s.Leaves[0]
			_, err := s.ApplyDelta(Delta{
				Removes: []Combination{gone.Combo},
				Updates: []LeafUpdate{{Combo: s.Leaves[1].Combo, Actual: 1, Forecast: 100}},
				Adds:    []Leaf{{Combo: gone.Combo, Actual: 3, Forecast: 100, Anomalous: !gone.Anomalous}},
			})
			if err != nil {
				t.Fatal(err)
			}
		}},
	}
	snapshots := []struct {
		name string
		make func(testing.TB) *Snapshot
	}{
		{"dense", deltaTestSnapshot},
		{"sparse", func(tb testing.TB) *Snapshot { return scanTestSnapshot(tb, 2) }},
	}
	for _, w := range writers {
		t.Run(w.name, func(t *testing.T) {
			for _, sn := range snapshots {
				snap := sn.make(t)
				warmAll(t, snap)
				frame, gen := snap.colFrameCached(), snap.gen
				w.write(t, snap)
				if snap.gen == gen {
					t.Fatalf("%s: generation did not advance", sn.name)
				}
				if snap.colFrameCached() != frame {
					t.Fatalf("%s: columnar frame was rebuilt, not kept", sn.name)
				}
				assertDeltaEquivalence(t, snap)
				assertCountsMatchFresh(t, snap, 0)
				assertLeafPosMatches(t, snap)
				assertRollupReusesTotals(t, snap, allAttrs(snap), 1)
				fresh := freshOf(t, snap)
				for _, c := range AllCuboids([]int{0, 1, 2}) {
					if got, want := snap.GroupBy(c), fresh.GroupBy(c); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: GroupBy(%v): written %v, fresh %v", sn.name, c, got, want)
					}
				}
			}
		})
	}
}

// assertLeafPosMatches checks the leaf-position index: every leaf resolves
// to its own index and nothing else is indexed.
func assertLeafPosMatches(t *testing.T, s *Snapshot) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	pos := s.leafPosLocked()
	if pos.len() != len(s.Leaves) {
		t.Fatalf("leaf positions index %d leaves, snapshot has %d", pos.len(), len(s.Leaves))
	}
	for i, l := range s.Leaves {
		if at, ok := pos.get(pos.keyer.key(l.Combo)); !ok || int(at) != i {
			t.Fatalf("leaf %d %v resolves to (%d, %v)", i, l.Combo, at, ok)
		}
	}
}

// TestRelabelTouchedWithoutFlipLeavesSnapshot: a touched relabel that flips
// no label changes nothing, so the generation and the label caches stay.
func TestRelabelTouchedWithoutFlipLeavesSnapshot(t *testing.T) {
	snap := deltaTestSnapshot(t)
	detect := func(actual, forecast float64) bool { return actual < 0.5*forecast }
	snap.Relabel(detect)
	cols := snap.Columns()
	gen := snap.gen
	all := make([]int, snap.Len())
	for i := range all {
		all[i] = i
	}
	if flipped := snap.RelabelTouched(detect, all); len(flipped) != 0 {
		t.Fatalf("relabel with the same detector flipped %v", flipped)
	}
	if snap.gen != gen {
		t.Fatal("a touched relabel without flips advanced the generation")
	}
	if snap.Columns() != cols {
		t.Fatal("a touched relabel without flips dropped the label caches")
	}
}
