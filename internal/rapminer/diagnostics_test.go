package rapminer

import (
	"context"
	"math"
	"testing"

	"repro/internal/kpi"
	"repro/internal/obs"
)

func TestLocalizeWithDiagnostics(t *testing.T) {
	s := tableVSchema()
	rap := kpi.MustParseCombination(s, "(a1, *, *, *)")
	snap := denseSnapshot(t, s, rap)
	m := MustNew(DefaultConfig())
	res, diag, err := m.LocalizeWithDiagnosticsContext(context.Background(), snap, 3)
	if err != nil {
		t.Fatalf("LocalizeWithDiagnostics: %v", err)
	}
	if len(res.Patterns) != 1 || !res.Patterns[0].Combo.Equal(rap) {
		t.Fatalf("result = %s", res.Format(s))
	}
	if len(diag.CPs) != 4 {
		t.Fatalf("CPs = %d, want 4", len(diag.CPs))
	}
	if diag.CuboidsTotal != 15 {
		t.Errorf("CuboidsTotal = %d, want 15", diag.CuboidsTotal)
	}
	if diag.CuboidsSearchable > diag.CuboidsTotal {
		t.Errorf("searchable %d > total %d", diag.CuboidsSearchable, diag.CuboidsTotal)
	}
	if diag.CuboidsVisited < 1 || diag.CuboidsVisited > diag.CuboidsSearchable {
		t.Errorf("visited %d outside [1, %d]", diag.CuboidsVisited, diag.CuboidsSearchable)
	}
	if diag.CombinationsScanned < 1 {
		t.Error("no combinations scanned")
	}
	if !diag.EarlyStopped {
		t.Error("clean single-RAP case should early-stop")
	}
	if diag.Candidates != 1 {
		t.Errorf("Candidates = %d, want 1", diag.Candidates)
	}
	// Only attribute A has classification power here; the other three
	// are deleted.
	if len(diag.KeptAttributes) != 1 || diag.KeptAttributes[0] != 0 {
		t.Errorf("KeptAttributes = %v, want [0]", diag.KeptAttributes)
	}
	if got := diag.DeletedAttributes(); len(got) != 3 {
		t.Errorf("DeletedAttributes = %v, want 3 entries", got)
	}
}

func TestDiagnosticsAblationVisitsWholeLattice(t *testing.T) {
	s := tableVSchema()
	snap := denseSnapshot(t, s, kpi.MustParseCombination(s, "(a1, b1, c1, d1)"))
	// Flip one extra unmatched leaf anomalous so coverage cannot
	// complete (the candidate covering it is found, so use a leaf the
	// search WILL cover... instead break coverage by keeping a leaf
	// anomalous that no confident pattern covers: impossible — a leaf
	// group always has confidence 1. Use the ablation arm instead and a
	// clean case: early stop fires only at the leaf layer.
	cfg := DefaultConfig()
	cfg.DisableAttributeDeletion = true
	m := MustNew(cfg)
	_, diag, err := m.LocalizeWithDiagnosticsContext(context.Background(), snap, 3)
	if err != nil {
		t.Fatal(err)
	}
	if diag.CuboidsSearchable != diag.CuboidsTotal {
		t.Errorf("ablation searchable = %d, want %d", diag.CuboidsSearchable, diag.CuboidsTotal)
	}
	if len(diag.KeptAttributes) != 4 {
		t.Errorf("ablation kept %v", diag.KeptAttributes)
	}
}

func TestDeletedAttributesOrdering(t *testing.T) {
	// DeletedAttributes promises attribute order (ascending index), no
	// matter how KeptAttributes is ordered — it is sorted by descending CP,
	// not by index.
	d := Diagnostics{
		CPs: []AttributeCP{
			{Attr: 0, CP: 0.0001},
			{Attr: 1, CP: 0.9},
			{Attr: 2, CP: 0.0002},
			{Attr: 3, CP: 0.5},
			{Attr: 4, CP: 0.0003},
		},
		// Kept in descending-CP order: attribute 1 then 3.
		KeptAttributes: []int{1, 3},
	}
	got := d.DeletedAttributes()
	want := []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("DeletedAttributes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DeletedAttributes = %v, want %v (ascending attribute order)", got, want)
		}
	}

	// Nothing deleted -> empty (nil) result.
	all := Diagnostics{CPs: d.CPs, KeptAttributes: []int{4, 3, 2, 1, 0}}
	if got := all.DeletedAttributes(); len(got) != 0 {
		t.Errorf("all-kept DeletedAttributes = %v, want empty", got)
	}
}

func TestDiagnosticsZeroOnDegenerateInputs(t *testing.T) {
	s := tableVSchema()
	snap := denseSnapshot(t, s) // no anomalies
	m := MustNew(DefaultConfig())
	_, diag, err := m.LocalizeWithDiagnosticsContext(context.Background(), snap, 3)
	if err != nil {
		t.Fatal(err)
	}
	if diag.CuboidsVisited != 0 || diag.Candidates != 0 {
		t.Errorf("degenerate diagnostics = %+v", diag)
	}
}

func TestDiagnosticsJournalLayersAndCandidates(t *testing.T) {
	s := tableVSchema()
	rap := kpi.MustParseCombination(s, "(a1, *, *, *)")
	snap := denseSnapshot(t, s, rap)
	m := MustNew(DefaultConfig())
	res, diag, err := m.LocalizeWithDiagnosticsContext(context.Background(), snap, 3)
	if err != nil {
		t.Fatal(err)
	}

	// Config echo.
	if diag.TCP != DefaultConfig().TCP || diag.TConf != DefaultConfig().TConf {
		t.Errorf("thresholds = (%v, %v)", diag.TCP, diag.TConf)
	}

	// Per-layer counts must sum to the run totals.
	var cuboids, combos, pruned, cands int
	for i, l := range diag.Layers {
		if l.Layer != i+1 {
			t.Errorf("layer %d records Layer = %d", i+1, l.Layer)
		}
		cuboids += l.Cuboids
		combos += l.Combinations
		pruned += l.Pruned
		cands += l.Candidates
	}
	if cuboids != diag.CuboidsVisited {
		t.Errorf("layer cuboids sum %d != CuboidsVisited %d", cuboids, diag.CuboidsVisited)
	}
	if combos != diag.CombinationsScanned {
		t.Errorf("layer combinations sum %d != CombinationsScanned %d", combos, diag.CombinationsScanned)
	}
	if pruned != diag.CombinationsPruned {
		t.Errorf("layer pruned sum %d != CombinationsPruned %d", pruned, diag.CombinationsPruned)
	}
	if cands != diag.Candidates {
		t.Errorf("layer candidates sum %d != Candidates %d", cands, diag.Candidates)
	}

	// Early stop on layer 1: the single RAP covers everything.
	if !diag.EarlyStopped || diag.EarlyStopLayer != 1 {
		t.Errorf("early stop = (%v, layer %d), want (true, 1)", diag.EarlyStopped, diag.EarlyStopLayer)
	}

	// The candidate set journals the ranked candidates with the Eq. 3
	// arithmetic intact and mirrors the returned patterns.
	if len(diag.CandidateSet) != diag.Candidates {
		t.Fatalf("CandidateSet has %d entries, Candidates = %d", len(diag.CandidateSet), diag.Candidates)
	}
	for i, c := range diag.CandidateSet {
		want := c.Confidence / math.Sqrt(float64(c.Layer))
		if math.Abs(c.RAPScore-want) > 1e-12 {
			t.Errorf("candidate %d RAPScore = %v, want conf/sqrt(layer) = %v", i, c.RAPScore, want)
		}
		if c.Confidence <= DefaultConfig().TConf {
			t.Errorf("candidate %d confidence %v <= t_conf", i, c.Confidence)
		}
		if c.TotalLeaves < c.AnomalousLeaves || c.AnomalousLeaves < 1 {
			t.Errorf("candidate %d support %d/%d", i, c.AnomalousLeaves, c.TotalLeaves)
		}
		if c.Combo.Layer() != c.Layer {
			t.Errorf("candidate %d Layer %d != combo layer %d", i, c.Layer, c.Combo.Layer())
		}
		if i < len(res.Patterns) {
			if !c.Combo.Equal(res.Patterns[i].Combo) || c.RAPScore != res.Patterns[i].Score {
				t.Errorf("candidate %d disagrees with returned pattern", i)
			}
		}
	}
}

func TestLocalizeWithDiagnosticsContextSharesTrace(t *testing.T) {
	s := tableVSchema()
	snap := denseSnapshot(t, s, kpi.MustParseCombination(s, "(a1, *, *, *)"))
	m := MustNew(DefaultConfig())

	tc := obs.NewTraceContext()
	ctx, parent := obs.StartSpan(obs.ContextWithTrace(context.Background(), tc), "test.run")
	resCtx, diagCtx, err := m.LocalizeWithDiagnosticsContext(ctx, snap, 3)
	if err != nil {
		t.Fatal(err)
	}
	parent.End()

	// Same answer as a run under a fresh trace.
	resPlain, diagPlain, err := m.LocalizeWithDiagnosticsContext(context.Background(), snap, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(resCtx.Patterns) != len(resPlain.Patterns) || diagCtx.CuboidsVisited != diagPlain.CuboidsVisited {
		t.Errorf("runs under the caller's and a fresh trace disagree")
	}

	// Both stage spans joined the caller's trace.
	var stages []string
	for _, sp := range obs.RecentSpans() {
		if sp.TraceID == tc.TraceID &&
			(sp.Name == "rapminer.attribute_deletion" || sp.Name == "rapminer.search") {
			stages = append(stages, sp.Name)
		}
	}
	if len(stages) != 2 {
		t.Errorf("stage spans in trace = %v, want both stages", stages)
	}
}
