// Package methods is the one table of localization methods. Each entry
// ties a method key (the ?method= and -method value) to the paper label its
// localizer's Name returns and to its constructor, so the HTTP service, the
// rapminer CLI, the experiment harness and the rap facade build the same
// localizer for the same name.
package methods

import (
	"slices"
	"strings"

	"repro/internal/baseline/adtributor"
	"repro/internal/baseline/fpgrowth"
	"repro/internal/baseline/hotspot"
	"repro/internal/baseline/idice"
	"repro/internal/baseline/riskloc"
	"repro/internal/baseline/squeeze"
	"repro/internal/ensemble"
	"repro/internal/localize"
	"repro/internal/rapminer"
)

// Constructor builds a fresh localizer. The RAPMiner configuration reaches
// RAPMiner and the ensemble's RAPMiner member; the baselines take their
// own default configurations.
type Constructor func(rapminer.Config) (localize.Localizer, error)

// Method is one registered localizer.
type Method struct {
	// Key is the lower-case name the service and the CLI accept.
	Key string
	// Label is the name the built localizer reports, as in the paper.
	Label string
	// Paper marks the five methods the paper's Figs. 8 and 9 compare.
	Paper bool
	New   Constructor
}

// table lists the methods in the paper's plotting order, then the
// extensions.
var table = []Method{
	{"adtributor", "Adtributor", true, newAdtributor},
	{"idice", "iDice", true, newIDice},
	{"fpgrowth", "FP-growth", true, newFPGrowth},
	{"squeeze", "Squeeze", true, newSqueeze},
	{"rapminer", "RAPMiner", true, newRAPMiner},
	{"hotspot", "HotSpot", false, newHotSpot},
	{"riskloc", "RiskLoc", false, newRiskLoc},
	{"ensemble", "Ensemble", false, newEnsemble},
}

// All returns a copy of the table, in order.
func All() []Method { return slices.Clone(table) }

// Keys lists the registered keys, in table order.
func Keys() []string {
	keys := make([]string, len(table))
	for i, m := range table {
		keys[i] = m.Key
	}
	return keys
}

// Lookup finds the method registered under key, ignoring case.
func Lookup(key string) (Method, bool) {
	key = strings.ToLower(key)
	for _, m := range table {
		if m.Key == key {
			return m, true
		}
	}
	return Method{}, false
}

// Build constructs the given methods with cfg, in order.
func Build(cfg rapminer.Config, ms ...Method) ([]localize.Localizer, error) {
	out := make([]localize.Localizer, len(ms))
	for i, m := range ms {
		l, err := m.New(cfg)
		if err != nil {
			return nil, err
		}
		out[i] = l
	}
	return out, nil
}

func newRAPMiner(cfg rapminer.Config) (localize.Localizer, error) { return rapminer.New(cfg) }

func newAdtributor(rapminer.Config) (localize.Localizer, error) {
	return adtributor.New(adtributor.DefaultConfig())
}

func newIDice(rapminer.Config) (localize.Localizer, error) { return idice.New(idice.DefaultConfig()) }

func newFPGrowth(rapminer.Config) (localize.Localizer, error) {
	return fpgrowth.New(fpgrowth.DefaultConfig())
}

func newSqueeze(rapminer.Config) (localize.Localizer, error) {
	return squeeze.New(squeeze.DefaultConfig())
}

func newHotSpot(rapminer.Config) (localize.Localizer, error) {
	return hotspot.New(hotspot.DefaultConfig())
}

func newRiskLoc(rapminer.Config) (localize.Localizer, error) {
	return riskloc.New(riskloc.DefaultConfig())
}

// newEnsemble fuses RAPMiner, FP-growth and Squeeze (the three strongest
// individual methods) with RiskLoc, whose weighted-risk partition degrades
// differently under noise and so adds an independent vote.
func newEnsemble(cfg rapminer.Config) (localize.Localizer, error) {
	members := make([]localize.Localizer, 0, 4)
	for _, build := range []Constructor{newRAPMiner, newFPGrowth, newSqueeze, newRiskLoc} {
		m, err := build(cfg)
		if err != nil {
			return nil, err
		}
		members = append(members, m)
	}
	return ensemble.New(members...)
}
