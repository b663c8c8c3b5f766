package kpi_test

import (
	"fmt"

	"repro/internal/kpi"
)

// ExampleCombination_Matches shows the scope semantics: a combination
// matches every leaf that agrees on its constrained attributes.
func ExampleCombination_Matches() {
	schema := kpi.MustSchema(
		kpi.Attribute{Name: "Location", Values: []string{"L1", "L2"}},
		kpi.Attribute{Name: "Website", Values: []string{"Site1", "Site2"}},
	)
	scope := kpi.MustParseCombination(schema, "(L1, *)")
	leaf1 := kpi.MustParseCombination(schema, "(L1, Site2)")
	leaf2 := kpi.MustParseCombination(schema, "(L2, Site2)")
	fmt.Println(scope.Matches(leaf1))
	fmt.Println(scope.Matches(leaf2))
	// Output:
	// true
	// false
}

// ExampleDecreaseRatio reproduces Table IV of the paper: deleting k
// redundant attributes removes at least (2^k - 1)/2^k of the cuboids.
func ExampleDecreaseRatio() {
	for k := 1; k <= 3; k++ {
		fmt.Printf("k=%d: %.4f\n", k, kpi.DecreaseRatio(4, k))
	}
	// Output:
	// k=1: 0.5333
	// k=2: 0.8000
	// k=3: 0.9333
}

// ExampleSnapshot_GroupBy aggregates leaf statistics per cuboid in one
// pass, the primitive behind every localization method in this repository.
func ExampleSnapshot_GroupBy() {
	schema := kpi.MustSchema(
		kpi.Attribute{Name: "Location", Values: []string{"L1", "L2"}},
		kpi.Attribute{Name: "Website", Values: []string{"Site1", "Site2"}},
	)
	snapshot, err := kpi.NewSnapshot(schema, []kpi.Leaf{
		{Combo: kpi.Combination{0, 0}, Actual: 10, Forecast: 20, Anomalous: true},
		{Combo: kpi.Combination{0, 1}, Actual: 30, Forecast: 30},
		{Combo: kpi.Combination{1, 0}, Actual: 5, Forecast: 10, Anomalous: true},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cuboid := kpi.Cuboid{1}
	combo := make(kpi.Combination, schema.NumAttributes())
	for _, g := range snapshot.GroupBy(cuboid) {
		// Groups carry their index; decode only the ones you report.
		snapshot.DecodeGroup(snapshot.Indexer(cuboid), g.Group, combo)
		fmt.Printf("%s: %d leaves, confidence %.1f\n",
			combo.Format(schema), g.Total, g.Confidence())
	}
	// Output:
	// (*, Site1): 2 leaves, confidence 1.0
	// (*, Site2): 1 leaves, confidence 0.0
}
