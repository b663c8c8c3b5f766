// Package experiments contains one driver per table and figure of the
// RAPMiner paper's evaluation section, all deterministic per seed. Each
// driver returns typed rows; the Format* helpers render them in the shape
// the paper reports.
package experiments

import (
	"fmt"
	"slices"

	"repro/internal/localize"
	"repro/internal/methods"
	"repro/internal/rapminer"
)

// MethodNames lists the five methods of the paper's figures, in the
// paper's plotting order.
var MethodNames = labels(paperMethods())

// AllMethods constructs the paper's five localizers plus the HotSpot and
// RiskLoc extensions.
func AllMethods() ([]localize.Localizer, error) {
	return methods.Build(rapminer.DefaultConfig(), slices.DeleteFunc(methods.All(),
		func(m methods.Method) bool { return m.Key == "ensemble" })...)
}

func paperMethods() []methods.Method {
	return slices.DeleteFunc(methods.All(), func(m methods.Method) bool { return !m.Paper })
}

func labels(ms []methods.Method) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Label
	}
	return out
}

// Options controls corpus sizes and determinism for every driver.
type Options struct {
	// Seed drives every generator; equal seeds give equal tables.
	Seed int64
	// SqueezeCases is the number of cases per (dim, #RAPs) group.
	SqueezeCases int
	// RAPMDCases is the number of RAPMD failure cases (paper: 105).
	RAPMDCases int
	// IncludeHotSpot adds the HotSpot extension to the method set.
	IncludeHotSpot bool
	// IncludeRiskLoc adds the RiskLoc extension to the method set.
	IncludeRiskLoc bool
	// IncludeEnsemble adds the rank-fusion ensemble of RAPMiner,
	// FP-growth, Squeeze and RiskLoc to the method set.
	IncludeEnsemble bool
	// Repeats runs the RAPMD evaluation over this many independently
	// seeded corpora (seed, seed+1000, ...) and aggregates the metrics,
	// tightening the confidence intervals. 0 behaves as 1.
	Repeats int
}

// repeats normalizes the Repeats option.
func (o Options) repeats() int {
	if o.Repeats < 1 {
		return 1
	}
	return o.Repeats
}

func (o Options) validate() error {
	if o.SqueezeCases < 1 {
		return fmt.Errorf("experiments: SqueezeCases %d, want >= 1", o.SqueezeCases)
	}
	if o.RAPMDCases < 1 {
		return fmt.Errorf("experiments: RAPMDCases %d, want >= 1", o.RAPMDCases)
	}
	if o.Repeats < 0 {
		return fmt.Errorf("experiments: Repeats %d, want >= 0", o.Repeats)
	}
	return nil
}

// methods builds the paper's methods plus the extensions the Include*
// options switch on, in registry order.
func (o Options) methods() ([]localize.Localizer, error) {
	include := map[string]bool{"hotspot": o.IncludeHotSpot, "riskloc": o.IncludeRiskLoc, "ensemble": o.IncludeEnsemble}
	return methods.Build(rapminer.DefaultConfig(), slices.DeleteFunc(methods.All(),
		func(m methods.Method) bool { return !m.Paper && !include[m.Key] })...)
}
