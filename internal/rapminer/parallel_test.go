package rapminer

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/gendata"
	"repro/internal/kpi"
)

// TestParallelSearchMatchesSequential is the determinism property behind the
// worker pool: for any worker count the search must produce bit-identical
// results — same candidates, same scores, same ranking, and the same
// Diagnostics journal (layer counts, prune counts, early-stop cut-off) — as
// the sequential single-worker run.
func TestParallelSearchMatchesSequential(t *testing.T) {
	corpus, err := gendata.RAPMD(17, 6)
	if err != nil {
		t.Fatal(err)
	}
	snapshots := make([]*kpi.Snapshot, 0, len(corpus.Cases)+1)
	for _, c := range corpus.Cases {
		snapshots = append(snapshots, c.Snapshot)
	}
	snapshots = append(snapshots, benchCase(t))

	base, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq := base.WithWorkers(1)
	for si, snap := range snapshots {
		wantRes, wantDiag, err := seq.LocalizeWithDiagnosticsContext(context.Background(), snap, 10)
		if err != nil {
			t.Fatalf("case %d: sequential run failed: %v", si, err)
		}
		// Every merged cuboid is either rolled up or scanned, and each scan
		// is one leaf pass; layer 1 also carries the roll-up base pass.
		for _, l := range wantDiag.Layers {
			if l.FusedCuboids+l.RollupServed != l.Cuboids {
				t.Errorf("case %d layer %d: %d scanned + %d rolled up != %d merged",
					si, l.Layer, l.FusedCuboids, l.RollupServed, l.Cuboids)
			}
			base := l.ScanPasses - l.FusedCuboids
			if base != 0 && (l.Layer != 1 || base != 1) {
				t.Errorf("case %d layer %d: %d scan passes for %d scanned cuboids",
					si, l.Layer, l.ScanPasses, l.FusedCuboids)
			}
		}
		for _, workers := range []int{2, 4, 8} {
			par := base.WithWorkers(workers)
			gotRes, gotDiag, err := par.LocalizeWithDiagnosticsContext(context.Background(), snap, 10)
			if err != nil {
				t.Fatalf("case %d workers %d: %v", si, workers, err)
			}
			if len(gotRes.Patterns) != len(wantRes.Patterns) {
				t.Fatalf("case %d workers %d: %d patterns, want %d",
					si, workers, len(gotRes.Patterns), len(wantRes.Patterns))
			}
			for i := range wantRes.Patterns {
				w, g := wantRes.Patterns[i], gotRes.Patterns[i]
				if !g.Combo.Equal(w.Combo) || g.Score != w.Score {
					t.Errorf("case %d workers %d pattern %d: got %v@%v, want %v@%v",
						si, workers, i, g.Combo, g.Score, w.Combo, w.Score)
				}
			}
			if !reflect.DeepEqual(gotDiag, wantDiag) {
				t.Errorf("case %d workers %d: diagnostics diverge\n got %+v\nwant %+v",
					si, workers, gotDiag, wantDiag)
			}
			// Threading a live context (cancellation plumbing active, no
			// deadline) must not perturb the run either.
			ctxRes, ctxDiag, err := par.LocalizeWithDiagnosticsContext(context.Background(), snap, 10)
			if err != nil {
				t.Fatalf("case %d workers %d (ctx): %v", si, workers, err)
			}
			if ctxRes.Degraded {
				t.Fatalf("case %d workers %d: unbudgeted ctx run reported degraded", si, workers)
			}
			if !reflect.DeepEqual(ctxRes, gotRes) || !reflect.DeepEqual(ctxDiag, gotDiag) {
				t.Errorf("case %d workers %d: ctx-threaded run diverges from context-free run", si, workers)
			}
		}
	}
}

// TestWithWorkersDoesNotMutateReceiver checks WithWorkers derives a new miner
// and leaves the receiver's configuration untouched.
func TestWithWorkersDoesNotMutateReceiver(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 3
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := m.WithWorkers(7)
	if got := w.cfg.Workers; got != 7 {
		t.Fatalf("derived miner has %d workers, want 7", got)
	}
	if got := m.cfg.Workers; got != 3 {
		t.Fatalf("receiver mutated to %d workers, want 3", got)
	}
	if neg := m.WithWorkers(-5); neg.cfg.Workers != 0 {
		t.Fatalf("negative worker count not normalized: %d", neg.cfg.Workers)
	}
}

// WithWorkers returns a miner sharing m's thresholds with the per-run
// worker count replaced; m is unchanged. The tests use it to run one
// configuration at several worker counts.
func (m *Miner) WithWorkers(n int) *Miner {
	if n < 0 {
		n = 0
	}
	cfg := m.cfg
	cfg.Workers = n
	return &Miner{cfg: cfg}
}
