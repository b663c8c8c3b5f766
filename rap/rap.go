// Package rap is the public face of the RAPMiner library: it re-exports
// the data model, the detectors, RAPMiner itself and every baseline
// localizer from the internal packages, so downstream modules can depend on
// a single import path with a stable surface.
//
//	import "repro/rap"
//
//	schema, _ := rap.NewSchema(
//	    rap.Attribute{Name: "Location", Values: []string{"L1", "L2"}},
//	    rap.Attribute{Name: "Website", Values: []string{"Site1", "Site2"}},
//	)
//	snapshot, _ := rap.NewSnapshot(schema, leaves)
//	rap.Label(snapshot, rap.DefaultDetector())
//	miner, _ := rap.NewMiner(rap.DefaultMinerConfig())
//	result, _ := miner.Localize(snapshot, 3)
//
// All names are aliases: values created here interoperate freely with the
// internal packages used by the command-line tools and the experiment
// harness.
package rap

import (
	"slices"

	"repro/internal/anomaly"
	"repro/internal/ensemble"
	"repro/internal/kpi"
	"repro/internal/localize"
	"repro/internal/methods"
	"repro/internal/rapminer"
)

// Data model (package kpi).
type (
	// Attribute is one dimension of the KPI space.
	Attribute = kpi.Attribute
	// Schema is the attribute space of a dataset.
	Schema = kpi.Schema
	// Combination is an attribute combination with Wildcard gaps.
	Combination = kpi.Combination
	// Cuboid identifies one cuboid of the lattice.
	Cuboid = kpi.Cuboid
	// Leaf is one most fine-grained observation (actual, forecast, label).
	Leaf = kpi.Leaf
	// Snapshot is the leaf dataset at one timestamp.
	Snapshot = kpi.Snapshot
)

// Wildcard marks an unconstrained position of a Combination.
const Wildcard = kpi.Wildcard

// Data-model constructors and helpers.
var (
	// NewSchema validates and builds a Schema.
	NewSchema = kpi.NewSchema
	// NewSnapshot validates and builds a Snapshot.
	NewSnapshot = kpi.NewSnapshot
	// ParseCombination parses "(L1, *, *, Site1)" notation.
	ParseCombination = kpi.ParseCombination
	// ReadCSV / WriteCSV round-trip the Table III CSV layout.
	ReadCSV  = kpi.ReadCSV
	WriteCSV = kpi.WriteCSV
	// ReadJSON / WriteJSON round-trip the JSON snapshot document.
	ReadJSON  = kpi.ReadJSON
	WriteJSON = kpi.WriteJSON
)

// Detection (package anomaly).
type (
	// Detector labels a single leaf observation.
	Detector = anomaly.Detector
	// RelativeDeviation is the threshold detector matched to the
	// paper's injection scheme.
	RelativeDeviation = anomaly.RelativeDeviation
)

var (
	// Label applies a detector to every leaf in place.
	Label = anomaly.Label
	// DefaultDetector returns the relative-deviation detector used
	// throughout the experiments.
	DefaultDetector = anomaly.DefaultRelativeDeviation
)

// Localization (packages localize and rapminer).
type (
	// Localizer is the interface every method implements.
	Localizer = localize.Localizer
	// Result is a ranked pattern list.
	Result = localize.Result
	// ScoredPattern is one ranked candidate.
	ScoredPattern = localize.ScoredPattern
	// Miner is RAPMiner, the paper's contribution.
	Miner = rapminer.Miner
	// MinerConfig holds t_CP, t_conf and the ablation switch.
	MinerConfig = rapminer.Config
	// MinerDiagnostics reports what one localization run did.
	MinerDiagnostics = rapminer.Diagnostics
)

var (
	// NewMiner builds a RAPMiner instance.
	NewMiner = rapminer.New
	// DefaultMinerConfig returns the paper's thresholds.
	DefaultMinerConfig = rapminer.DefaultConfig
)

// Baselines returns fresh instances of every registered method except
// RAPMiner and the ensemble: the paper's four baselines in its plotting
// order, then the HotSpot and RiskLoc extensions.
func Baselines() ([]Localizer, error) {
	return methods.Build(rapminer.DefaultConfig(), slices.DeleteFunc(methods.All(),
		func(m methods.Method) bool { return m.Key == "rapminer" || m.Key == "ensemble" })...)
}

// NewEnsemble fuses the given members with reciprocal rank fusion.
func NewEnsemble(members ...Localizer) (Localizer, error) {
	return ensemble.New(members...)
}
