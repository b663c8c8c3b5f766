package experiments

import (
	"fmt"
	"time"

	"repro/internal/evalmetrics"
	"repro/internal/gendata"
)

// SqueezeEvalRow holds, for one (dimension, #RAPs) group, the per-method
// F1-score (Fig. 8a) and mean runtime in seconds (Fig. 9a).
type SqueezeEvalRow struct {
	Group       gendata.SqueezeGroup
	F1          map[string]float64
	MeanSeconds map[string]float64
}

// RunSqueezeEval evaluates every method on the nine Squeeze-B0 groups. As
// in the paper, the number of returned results per case equals the true
// number of RAPs.
func RunSqueezeEval(opt Options) ([]SqueezeEvalRow, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	methods, err := opt.methods()
	if err != nil {
		return nil, err
	}

	var rows []SqueezeEvalRow
	for gi, group := range gendata.SqueezeGroups() {
		corpus, err := gendata.SqueezeB0(opt.Seed+int64(gi), group, opt.SqueezeCases)
		if err != nil {
			return nil, fmt.Errorf("experiments: squeeze corpus %s: %w", group, err)
		}
		warmCaches(corpus.Cases)
		row := SqueezeEvalRow{
			Group:       group,
			F1:          make(map[string]float64, len(methods)),
			MeanSeconds: make(map[string]float64, len(methods)),
		}
		for _, m := range methods {
			var (
				score  evalmetrics.SetScore
				timing evalmetrics.Timing
			)
			for _, c := range corpus.Cases {
				start := time.Now()
				res, err := m.Localize(c.Snapshot, len(c.RAPs))
				if err != nil {
					return nil, fmt.Errorf("experiments: %s on %s: %w", m.Name(), group, err)
				}
				timing.Add(time.Since(start))
				score.Add(res.TopK(len(c.RAPs)), c.RAPs)
			}
			row.F1[m.Name()] = score.F1()
			row.MeanSeconds[m.Name()] = timing.Mean().Seconds()
		}
		rows = append(rows, row)
	}
	return rows, nil
}
