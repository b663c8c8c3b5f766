package ensemble

import (
	"context"
	"errors"
	"testing"

	"repro/internal/baseline/fpgrowth"
	"repro/internal/baseline/squeeze"
	"repro/internal/kpi"
	"repro/internal/localize"
	"repro/internal/rapminer"
)

func testSchema() *kpi.Schema {
	return kpi.MustSchema(
		kpi.Attribute{Name: "A", Values: []string{"a1", "a2", "a3"}},
		kpi.Attribute{Name: "B", Values: []string{"b1", "b2"}},
		kpi.Attribute{Name: "C", Values: []string{"c1", "c2"}},
	)
}

func injected(t *testing.T, raps ...kpi.Combination) *kpi.Snapshot {
	t.Helper()
	s := testSchema()
	var leaves []kpi.Leaf
	for a := int32(0); a < 3; a++ {
		for b := int32(0); b < 2; b++ {
			for c := int32(0); c < 2; c++ {
				combo := kpi.Combination{a, b, c}
				leaf := kpi.Leaf{Combo: combo, Actual: 100, Forecast: 100}
				for _, r := range raps {
					if r.Matches(combo) {
						leaf.Actual = 40
						leaf.Anomalous = true
						break
					}
				}
				leaves = append(leaves, leaf)
			}
		}
	}
	snap, err := kpi.NewSnapshot(s, leaves)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	return snap
}

func members(t *testing.T) []localize.Localizer {
	t.Helper()
	rm, err := rapminer.New(rapminer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fp, err := fpgrowth.New(fpgrowth.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sq, err := squeeze.New(squeeze.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return []localize.Localizer{rm, fp, sq}
}

func TestEnsembleAgreesWithMembersOnCleanCase(t *testing.T) {
	s := testSchema()
	rap := kpi.MustParseCombination(s, "(a1, *, *)")
	snap := injected(t, rap)
	ens, err := New(members(t)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := ens.Localize(snap, 2)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(res.Patterns) == 0 || !res.Patterns[0].Combo.Equal(rap) {
		t.Fatalf("ensemble top = %s, want (a1, *, *)", res.Format(s))
	}
}

func TestEnsembleConsensusBeatsSingleVote(t *testing.T) {
	// The RAP every member ranks first must outscore patterns only one
	// member mentions.
	s := testSchema()
	rap := kpi.MustParseCombination(s, "(*, b2, *)")
	snap := injected(t, rap)
	ens, err := New(members(t)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := ens.Localize(snap, 5)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if !res.Patterns[0].Combo.Equal(rap) {
		t.Fatalf("consensus RAP not first: %s", res.Format(s))
	}
	if len(res.Patterns) > 1 && res.Patterns[1].Score >= res.Patterns[0].Score {
		t.Errorf("runner-up ties the consensus RAP: %s", res.Format(s))
	}
}

func TestEnsembleValidation(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("empty ensemble accepted")
	}
	if _, err := New(nil); err == nil {
		t.Error("nil member accepted")
	}
	ens, err := New(members(t)...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ens.Localize(nil, 3); err == nil {
		t.Error("nil snapshot accepted")
	}
	if _, err := ens.Localize(injected(t), 0); err == nil {
		t.Error("k = 0 accepted")
	}
	if ens.Name() != "Ensemble" {
		t.Errorf("Name = %q", ens.Name())
	}
	if got := ens.Members(); len(got) != 3 || got[0] != "RAPMiner" {
		t.Errorf("Members = %v", got)
	}
}

type failingLocalizer struct{}

func (failingLocalizer) Name() string { return "boom" }
func (r failingLocalizer) Localize(s *kpi.Snapshot, k int) (localize.Result, error) {
	return r.LocalizeContext(context.Background(), s, k)
}

func (failingLocalizer) LocalizeContext(context.Context, *kpi.Snapshot, int) (localize.Result, error) {
	return localize.Result{}, errors.New("boom")
}

func TestEnsemblePropagatesMemberErrors(t *testing.T) {
	ens, err := New(failingLocalizer{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ens.Localize(injected(t), 3); err == nil {
		t.Error("member error swallowed")
	}
}

func TestEnsembleEmptyWhenNoAnomalies(t *testing.T) {
	ens, err := New(members(t)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ens.Localize(injected(t), 3)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(res.Patterns) != 0 {
		t.Errorf("clean snapshot produced %d patterns", len(res.Patterns))
	}
}
