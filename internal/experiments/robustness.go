package experiments

import (
	"fmt"

	"repro/internal/evalmetrics"
	"repro/internal/gendata"
	"repro/internal/inject"
	"repro/internal/localize"
	"repro/internal/methods"
	"repro/internal/rapminer"
)

// RobustnessScenario is one degradation setting of the PSqueeze-style
// robustness matrix: a named inject.NoiseConfig applied on top of the
// clean (2,2)-group Squeeze injection.
type RobustnessScenario struct {
	Name  string
	Noise inject.NoiseConfig
}

// relabel is the corpus detector threshold: scenarios that change values
// re-run the detector so labels reflect what a detector would now see.
const relabel = 0.095

// DefaultRobustnessScenarios returns the committed matrix: a clean
// baseline, two forecast-noise grades, magnitude imbalance, missing-leaf
// dropout, and everything combined.
func DefaultRobustnessScenarios() []RobustnessScenario {
	return []RobustnessScenario{
		{Name: "clean"},
		{Name: "fnoise-0.01", Noise: inject.NoiseConfig{ForecastStd: 0.01, RelabelThreshold: relabel}},
		{Name: "fnoise-0.05", Noise: inject.NoiseConfig{ForecastStd: 0.05, RelabelThreshold: relabel}},
		{Name: "imbalance-0.6", Noise: inject.NoiseConfig{Imbalance: 0.6, RelabelThreshold: relabel}},
		{Name: "dropout-0.25", Noise: inject.NoiseConfig{Dropout: 0.25}},
		{Name: "combined", Noise: inject.NoiseConfig{
			ForecastStd: 0.025, Imbalance: 0.4, Dropout: 0.1, RelabelThreshold: relabel,
		}},
	}
}

// RobustnessRow holds one scenario's per-method F1 on the (2,2) group.
type RobustnessRow struct {
	Scenario string
	F1       map[string]float64
}

// RunRobustnessMatrix evaluates the full method matrix — the paper's five
// methods plus HotSpot, RiskLoc and the rank-fusion ensemble, regardless
// of the Include* options — across the robustness scenarios. Every
// scenario degrades the same clean corpus (same seed, same ground truth),
// so column deltas isolate the perturbation's effect.
func RunRobustnessMatrix(opt Options, scenarios []RobustnessScenario) ([]RobustnessRow, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if len(scenarios) == 0 {
		scenarios = DefaultRobustnessScenarios()
	}
	localizers, err := methods.Build(rapminer.DefaultConfig(), methods.All()...)
	if err != nil {
		return nil, err
	}

	group := gendata.SqueezeGroup{Dim: 2, NumRAPs: 2}
	var rows []RobustnessRow
	for _, sc := range scenarios {
		corpus, err := gendata.SqueezeRobust(opt.Seed, group, opt.SqueezeCases, sc.Noise)
		if err != nil {
			return nil, fmt.Errorf("experiments: robustness corpus %q: %w", sc.Name, err)
		}
		row := RobustnessRow{Scenario: sc.Name, F1: make(map[string]float64, len(localizers))}
		for _, m := range localizers {
			f1, err := robustnessF1(m, corpus)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s under %q: %w", m.Name(), sc.Name, err)
			}
			row.F1[m.Name()] = f1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func robustnessF1(m localize.Localizer, corpus *gendata.Corpus) (float64, error) {
	var score evalmetrics.SetScore
	for _, c := range corpus.Cases {
		res, err := m.Localize(c.Snapshot, len(c.RAPs))
		if err != nil {
			return 0, err
		}
		score.Add(res.TopK(len(c.RAPs)), c.RAPs)
	}
	return score.F1(), nil
}

// FormatRobustnessMatrix renders the robustness study.
func FormatRobustnessMatrix(rows []RobustnessRow) string {
	if len(rows) == 0 {
		return "Extension — robustness matrix\n(no rows)\n"
	}
	cols := methodColumns(rows[0].F1)
	header := append([]string{"scenario"}, cols...)
	var out [][]string
	for _, r := range rows {
		cells := []string{r.Scenario}
		for _, m := range cols {
			cells = append(cells, fmt.Sprintf("%.3f", r.F1[m]))
		}
		out = append(out, cells)
	}
	return "Extension — F1 on the (2,2) group under PSqueeze-style degradations\n" +
		textTable(header, out)
}
