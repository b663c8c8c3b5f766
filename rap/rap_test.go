package rap_test

import (
	"fmt"
	"testing"

	"repro/rap"
)

func buildSnapshot(t testing.TB) *rap.Snapshot {
	t.Helper()
	schema, err := rap.NewSchema(
		rap.Attribute{Name: "Location", Values: []string{"L1", "L2", "L3"}},
		rap.Attribute{Name: "Website", Values: []string{"Site1", "Site2"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	scope, err := rap.ParseCombination(schema, "(L2, *)")
	if err != nil {
		t.Fatal(err)
	}
	var leaves []rap.Leaf
	for l := int32(0); l < 3; l++ {
		for w := int32(0); w < 2; w++ {
			combo := rap.Combination{l, w}
			leaf := rap.Leaf{Combo: combo, Actual: 100, Forecast: 100}
			if scope.Matches(combo) {
				leaf.Actual = 35
			}
			leaves = append(leaves, leaf)
		}
	}
	snap, err := rap.NewSnapshot(schema, leaves)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestFacadeEndToEnd(t *testing.T) {
	snap := buildSnapshot(t)
	if n := rap.Label(snap, rap.DefaultDetector()); n != 2 {
		t.Fatalf("labeled %d leaves, want 2", n)
	}
	miner, err := rap.NewMiner(rap.DefaultMinerConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := miner.Localize(snap, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := rap.ParseCombination(snap.Schema, "(L2, *)")
	if len(res.Patterns) != 1 || !res.Patterns[0].Combo.Equal(want) {
		t.Fatalf("result = %s", res.Format(snap.Schema))
	}
}

func TestFacadeBaselinesRoster(t *testing.T) {
	baselines, err := rap.Baselines()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"Adtributor", "iDice", "FP-growth", "Squeeze", "HotSpot", "RiskLoc"}
	if len(baselines) != len(want) {
		t.Fatalf("got %d baselines", len(baselines))
	}
	snap := buildSnapshot(t)
	rap.Label(snap, rap.DefaultDetector())
	for i, b := range baselines {
		if b.Name() != want[i] {
			t.Errorf("baseline %d = %q, want %q", i, b.Name(), want[i])
		}
		if _, err := b.Localize(snap, 2); err != nil {
			t.Errorf("%s: %v", b.Name(), err)
		}
	}
}

func TestFacadeEnsemble(t *testing.T) {
	miner, err := rap.NewMiner(rap.DefaultMinerConfig())
	if err != nil {
		t.Fatal(err)
	}
	baselines, err := rap.Baselines()
	if err != nil {
		t.Fatal(err)
	}
	ens, err := rap.NewEnsemble(miner, baselines[2] /* FP-growth */)
	if err != nil {
		t.Fatal(err)
	}
	snap := buildSnapshot(t)
	rap.Label(snap, rap.DefaultDetector())
	res, err := ens.Localize(snap, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("ensemble found nothing")
	}
}

// Example shows the one-import quickstart promised by the package doc.
func Example() {
	schema, _ := rap.NewSchema(
		rap.Attribute{Name: "Location", Values: []string{"L1", "L2"}},
		rap.Attribute{Name: "Website", Values: []string{"Site1", "Site2"}},
	)
	leaves := []rap.Leaf{
		{Combo: rap.Combination{0, 0}, Actual: 30, Forecast: 100},
		{Combo: rap.Combination{0, 1}, Actual: 100, Forecast: 100},
		{Combo: rap.Combination{1, 0}, Actual: 25, Forecast: 90},
		{Combo: rap.Combination{1, 1}, Actual: 95, Forecast: 95},
	}
	snapshot, _ := rap.NewSnapshot(schema, leaves)
	rap.Label(snapshot, rap.DefaultDetector())
	miner, _ := rap.NewMiner(rap.DefaultMinerConfig())
	result, _ := miner.Localize(snapshot, 3)
	for _, p := range result.Patterns {
		fmt.Println(p.Combo.Format(schema))
	}
	// Output:
	// (*, Site1)
}
