package rapminer

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/kpi"
)

// freshCopy rebuilds snap from scratch over a copy of its leaves: no
// caches, no kept totals.
func freshCopy(t testing.TB, snap *kpi.Snapshot) *kpi.Snapshot {
	t.Helper()
	fresh, err := kpi.NewSnapshot(snap.Schema, snap.Clone().Leaves)
	if err != nil {
		t.Fatal(err)
	}
	return fresh
}

// reusedTotals reports whether a run served layer 1 from the roll-up
// without a pass over the leaves: it reused the snapshot's kept totals.
func reusedTotals(d Diagnostics) bool {
	return len(d.Layers) > 0 && d.Layers[0].ScanPasses == 0 && d.Layers[0].RollupServed > 0
}

// TestRollupTotalsReuseMatchesFresh walks a long-lived snapshot through
// every writer — labels, values, removes and adds, and a relabel that
// moves the kept attributes and so the roll-up base — and after each
// checks that a search, reusing the totals the snapshot kept where it
// can, answers with the same result and scrubbed Diagnostics as a fresh
// snapshot of the same leaves. The worlds cover both ways a reused run
// counts its anomalous leaves: a few per cuboid (one small RAP) and the
// whole base at once (benchCase's incident).
func TestRollupTotalsReuseMatchesFresh(t *testing.T) {
	worlds := map[string]func() *kpi.Snapshot{
		"bench": func() *kpi.Snapshot { return benchCase(t) },
		"small": func() *kpi.Snapshot { return worldSnapshot(t, 5, []int{12, 10, 8, 6}, 1, 1, 3) },
	}
	m := MustNew(DefaultConfig())
	for name, world := range worlds {
		t.Run(name, func(t *testing.T) {
			live := world()
			flip := func(idx ...int) {
				live.RelabelTouched(func(float64, float64) bool { return true }, idx)
			}
			var gone []kpi.Combination
			writers := []struct {
				name  string
				write func() error
			}{
				{"relabel_touched", func() error { flip(3, 4, 5); return nil }},
				{"update", func() error {
					d := kpi.Delta{Updates: []kpi.LeafUpdate{{Combo: live.Leaves[7].Combo, Actual: 1, Forecast: 100}}}
					_, err := live.ApplyDelta(d)
					return err
				}},
				{"remove", func() error {
					for _, i := range []int{0, 11, live.Len() / 2} {
						gone = append(gone, live.Leaves[i].Combo.Clone())
					}
					_, err := live.ApplyDelta(kpi.Delta{Removes: gone})
					return err
				}},
				{"add", func() error {
					d := kpi.Delta{Adds: []kpi.Leaf{
						{Combo: gone[0], Actual: 100, Forecast: 100},
						{Combo: gone[1], Actual: 20, Forecast: 100, Anomalous: true},
					}}
					_, err := live.ApplyDelta(d)
					return err
				}},
				{"rewrite", func() error {
					// Move the incident onto attributes 0 and 3: the
					// search keeps other attributes, so its base changes.
					live.Rewrite(func(l kpi.Leaf) (float64, float64, bool) {
						bad := l.Combo[0] == 1 && l.Combo[3] == 2
						return l.Actual, l.Forecast, bad
					})
					return nil
				}},
				{"relabel", func() error {
					live.Relabel(func(actual, forecast float64) bool { return actual < forecast/2 })
					return nil
				}},
				{"relabel_touched_again", func() error { flip(1, 2); return nil }},
			}
			// Only a snapshot ApplyDelta patches keeps totals: apply an
			// empty delta, so the first search seeds them.
			if _, err := live.ApplyDelta(kpi.Delta{}); err != nil {
				t.Fatal(err)
			}
			_, prev, err := m.LocalizeWithDiagnosticsContext(context.Background(), live, 10)
			if err != nil {
				t.Fatal(err)
			}
			reused := 0
			for i, w := range writers {
				if err := w.write(); err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
				mw := m.WithWorkers(1 << (i % 4))
				gotRes, gotDiag, err := mw.LocalizeWithDiagnosticsContext(context.Background(), live, 10)
				if err != nil {
					t.Fatalf("%s: %v", w.name, err)
				}
				wantRes, wantDiag, err := mw.LocalizeWithDiagnosticsContext(context.Background(), freshCopy(t, live), 10)
				if err != nil {
					t.Fatalf("%s: fresh run: %v", w.name, err)
				}
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("%s: results diverge from a fresh snapshot\n got %+v\nwant %+v", w.name, gotRes, wantRes)
				}
				if !reflect.DeepEqual(scrubScanStrategy(gotDiag), scrubScanStrategy(wantDiag)) {
					t.Fatalf("%s: diagnostics diverge from a fresh snapshot\n got %+v\nwant %+v", w.name, gotDiag, wantDiag)
				}
				if w.name == "rewrite" && reflect.DeepEqual(gotDiag.KeptAttributes, prev.KeptAttributes) {
					t.Fatalf("rewrite kept the same attributes %v; the base change is not exercised", gotDiag.KeptAttributes)
				}
				if reusedTotals(gotDiag) {
					reused++
				}
				prev = gotDiag
			}
			// A run whose kept attributes moved (the rewrite, the
			// relabel after it, and in the small world the first flip)
			// reads the leaves for its new base; every other one reuses.
			if reused < len(writers)-3 {
				t.Fatalf("%d of %d runs after a write reused the kept totals", reused, len(writers))
			}
		})
	}
}

// TestRollupTotalsConcurrentSearches runs two searches at once on a
// snapshot ApplyDelta patched, first while neither finds kept totals (both read the
// leaves and race to seed them) and then after another write (both reuse
// them), and checks each against a fresh snapshot. Run it under -race.
func TestRollupTotalsConcurrentSearches(t *testing.T) {
	live := benchCase(t)
	if _, err := live.ApplyDelta(kpi.Delta{}); err != nil {
		t.Fatal(err)
	}
	m := MustNew(DefaultConfig())
	for round := 0; round < 2; round++ {
		live.RelabelTouched(func(float64, float64) bool { return true }, []int{2 + round, 9 + round})
		wantRes, wantDiag, err := m.LocalizeWithDiagnosticsContext(context.Background(), freshCopy(t, live), 10)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, workers := range []int{1, 2} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, diag, err := m.WithWorkers(workers).LocalizeWithDiagnosticsContext(context.Background(), live, 10)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res, wantRes) || !reflect.DeepEqual(scrubScanStrategy(diag), scrubScanStrategy(wantDiag)) {
					t.Errorf("round %d workers %d: concurrent search diverges from a fresh snapshot", round, workers)
				}
				if reusedTotals(diag) != (round == 1) {
					t.Errorf("round %d workers %d: reused totals = %v", round, workers, reusedTotals(diag))
				}
			}()
		}
		wg.Wait()
	}
}
