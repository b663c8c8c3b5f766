// Package idice implements the iDice baseline (Lin et al., ICSE 2016)
// adapted to KPI snapshots. iDice identifies "effective combinations" for
// emerging issues with three mechanisms the paper's evaluation exercises:
//
//   - Impact-based pruning: combinations carrying a negligible share of the
//     KPI volume are discarded.
//   - Change detection: combinations whose actual value does not deviate
//     significantly from the forecast are discarded.
//   - Isolation Power ranking: surviving combinations are ranked by how
//     cleanly they split the dataset's anomaly labels into an inside and an
//     outside partition (an entropy-based measure).
//
// iDice traverses every cuboid breadth-first. Isolation power depends only
// on four counts (the leaves inside the combination, how many of them are
// anomalous, and the same two for the whole dataset), so each surviving
// combination is scored from the group counts of its cuboid's group-by
// rather than from a pass over the leaf set, and only the combinations
// that survive pruning are decoded from their group indexes.
//
// Its safe point is the cuboid: a run whose context ends stops before the
// next cuboid's group-by and ranks the combinations scored so far.
package idice

import (
	"context"
	"fmt"
	"math"

	"repro/internal/kpi"
	"repro/internal/localize"
)

// Config holds iDice's pruning thresholds.
type Config struct {
	// MinImpact is the minimum share of the total actual+forecast volume
	// a combination must carry to survive impact pruning.
	MinImpact float64
	// MinChange is the minimum relative |actual - forecast| deviation of
	// the aggregated combination for change detection to fire.
	MinChange float64
}

// DefaultConfig mirrors the small thresholds of the original system: prune
// combinations below 0.1% volume share or 5% aggregate change. The low
// impact floor keeps iDice's candidate pool large.
func DefaultConfig() Config {
	return Config{MinImpact: 0.001, MinChange: 0.05}
}

// Localizer is a configured iDice instance.
type Localizer struct {
	cfg Config
}

var _ localize.Localizer = (*Localizer)(nil)

// New validates the configuration.
func New(cfg Config) (*Localizer, error) {
	if cfg.MinImpact < 0 || cfg.MinImpact >= 1 {
		return nil, fmt.Errorf("idice: MinImpact %v out of [0, 1)", cfg.MinImpact)
	}
	if cfg.MinChange < 0 || cfg.MinChange >= 1 {
		return nil, fmt.Errorf("idice: MinChange %v out of [0, 1)", cfg.MinChange)
	}
	return &Localizer{cfg: cfg}, nil
}

// Name implements localize.Localizer.
func (l *Localizer) Name() string { return "iDice" }

// Localize implements localize.Localizer.
func (l *Localizer) Localize(snapshot *kpi.Snapshot, k int) (localize.Result, error) {
	return l.LocalizeContext(context.Background(), snapshot, k)
}

// LocalizeContext implements localize.Localizer. Once ctx ends, the
// cuboids not yet traversed are skipped.
func (l *Localizer) LocalizeContext(ctx context.Context, snapshot *kpi.Snapshot, k int) (localize.Result, error) {
	if snapshot == nil {
		return localize.Result{}, fmt.Errorf("idice: nil snapshot")
	}
	if k <= 0 {
		return localize.Result{}, fmt.Errorf("idice: k = %d, want > 0", k)
	}
	if snapshot.NumAnomalous() == 0 {
		return localize.Result{}, nil
	}

	totalV, totalF := snapshot.Sum(kpi.NewRoot(snapshot.Schema.NumAttributes()))
	totalVolume := totalV + totalF
	total, anomalous := snapshot.Len(), snapshot.NumAnomalous()

	attrs := make([]int, snapshot.Schema.NumAttributes())
	for i := range attrs {
		attrs[i] = i
	}

	var (
		patterns []localize.ScoredPattern
		groups   []kpi.GroupStats
		poll     = localize.NewPoll(ctx)
	)
	for _, cuboid := range kpi.AllCuboids(attrs) {
		if poll.Stop() {
			break
		}
		ix := snapshot.Indexer(cuboid)
		groups = snapshot.GroupByAppend(cuboid, groups)
		for _, g := range groups {
			// Impact-based pruning.
			if totalVolume > 0 && (g.Actual+g.Forecast)/totalVolume < l.cfg.MinImpact {
				continue
			}
			// Change detection on the aggregated KPI.
			if !l.changed(g.Actual, g.Forecast) {
				continue
			}
			ip := isolationPower(g.Total, g.Anomalous, total, anomalous)
			if ip <= 0 {
				continue
			}
			// Only surviving groups get a combination.
			combo := make(kpi.Combination, len(attrs))
			snapshot.DecodeGroup(ix, g.Group, combo)
			patterns = append(patterns, localize.ScoredPattern{Combo: combo, Score: ip})
		}
	}
	localize.SortPatterns(patterns)
	if k < len(patterns) {
		patterns = patterns[:k]
	}
	return poll.Result(patterns), nil
}

// changed reports whether the aggregate deviates from its forecast by at
// least MinChange relative to the forecast.
func (l *Localizer) changed(actual, forecast float64) bool {
	denom := math.Abs(forecast)
	if denom == 0 {
		return actual != 0
	}
	return math.Abs(actual-forecast)/denom >= l.cfg.MinChange
}

// isolationPower is the entropy reduction achieved by splitting the leaf
// dataset D into the leaves inside a combination's scope and those outside:
//
//	IP(S) = H(D) - (|in|/|D|) H(in) - (|out|/|D|) H(out)
//
// where H is the binary entropy of the anomalous proportion. inTotal and
// inAnom count the leaves inside the scope and the anomalous ones among
// them; total and anomalous count the same over D.
func isolationPower(inTotal, inAnom, total, anomalous int) float64 {
	if total == 0 || inTotal == 0 {
		return 0
	}
	outTotal, outAnom := total-inTotal, anomalous-inAnom
	hd := binaryEntropy(float64(anomalous) / float64(total))
	hin := binaryEntropy(float64(inAnom) / float64(inTotal))
	var hout float64
	if outTotal > 0 {
		hout = binaryEntropy(float64(outAnom) / float64(outTotal))
	}
	return hd - float64(inTotal)/float64(total)*hin - float64(outTotal)/float64(total)*hout
}

func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	q := 1 - p
	return -(p*math.Log(p) + q*math.Log(q))
}
