// Package adtributor implements the Adtributor baseline (Bhagwan et al.,
// NSDI 2014) used in the paper's evaluation. Adtributor assumes every root
// anomaly pattern is one-dimensional: it scans each attribute independently,
// scores each element by Surprise (Jensen-Shannon divergence between the
// forecast and actual probability distributions) and keeps the elements
// whose Explanatory Power (share of the total KPI change they account for)
// accumulates past a threshold.
//
// Its safe point is the attribute: a run whose context ends stops before
// the next attribute's scan and ranks the attributes scanned so far.
package adtributor

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/kpi"
	"repro/internal/localize"
)

// Config holds Adtributor's thresholds.
type Config struct {
	// TEP is the cumulative explanatory power a candidate set must reach
	// before the scan of an attribute stops.
	TEP float64
	// TEEP is the minimum per-element explanatory power; weaker elements
	// are ignored.
	TEEP float64
}

// DefaultConfig returns the thresholds used in the experiments. The NSDI
// paper uses TEP = 0.67; the KPI adaptation evaluated by the RAPMiner paper
// must recover several same-magnitude elements per failure (its Adtributor
// scores 0.995 on the (1,3) group), which needs a higher cumulative target.
func DefaultConfig() Config {
	return Config{TEP: 0.9, TEEP: 0.02}
}

// Localizer is a configured Adtributor instance.
type Localizer struct {
	cfg Config
}

var _ localize.Localizer = (*Localizer)(nil)

// New validates the configuration.
func New(cfg Config) (*Localizer, error) {
	if cfg.TEP <= 0 || cfg.TEP > 1 {
		return nil, fmt.Errorf("adtributor: TEP %v out of (0, 1]", cfg.TEP)
	}
	if cfg.TEEP < 0 || cfg.TEEP >= 1 {
		return nil, fmt.Errorf("adtributor: TEEP %v out of [0, 1)", cfg.TEEP)
	}
	return &Localizer{cfg: cfg}, nil
}

// Name implements localize.Localizer.
func (l *Localizer) Name() string { return "Adtributor" }

// candidate is one attribute's explanation: the selected elements with
// their surprise scores.
type candidate struct {
	attr     int
	elements []scoredElement
	surprise float64
}

type scoredElement struct {
	combo    kpi.Combination
	surprise float64
	ep       float64
}

// Localize implements localize.Localizer.
func (l *Localizer) Localize(snapshot *kpi.Snapshot, k int) (localize.Result, error) {
	return l.LocalizeContext(context.Background(), snapshot, k)
}

// LocalizeContext implements localize.Localizer. The result flattens the
// selected elements of the most surprising attributes into 1-D patterns,
// ordered by attribute surprise and then element surprise. Once ctx ends,
// the attributes not yet scanned are skipped.
func (l *Localizer) LocalizeContext(ctx context.Context, snapshot *kpi.Snapshot, k int) (localize.Result, error) {
	if snapshot == nil {
		return localize.Result{}, fmt.Errorf("adtributor: nil snapshot")
	}
	if k <= 0 {
		return localize.Result{}, fmt.Errorf("adtributor: k = %d, want > 0", k)
	}
	totalV, totalF := snapshot.Sum(kpi.NewRoot(snapshot.Schema.NumAttributes()))
	change := totalV - totalF
	if totalF == 0 && totalV == 0 {
		return localize.Result{}, nil
	}

	var cands []candidate
	poll := localize.NewPoll(ctx)
	for attr := 0; attr < snapshot.Schema.NumAttributes() && !poll.Stop(); attr++ {
		if c, ok := l.explainAttribute(snapshot, attr, totalV, totalF, change); ok {
			cands = append(cands, c)
		}
	}
	// Rank attributes by total surprise of their candidate sets.
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].surprise > cands[j].surprise })

	var patterns []localize.ScoredPattern
	for _, c := range cands {
		for _, e := range c.elements {
			patterns = append(patterns, localize.ScoredPattern{Combo: e.combo, Score: e.surprise})
			if len(patterns) == k {
				return poll.Result(patterns), nil
			}
		}
	}
	return poll.Result(patterns), nil
}

// explainAttribute runs the per-dimension element scan of the Adtributor
// algorithm.
func (l *Localizer) explainAttribute(s *kpi.Snapshot, attr int, totalV, totalF, change float64) (candidate, bool) {
	cuboid := kpi.Cuboid{attr}
	ix := s.Indexer(cuboid)
	groups := s.GroupBy(cuboid)
	elems := make([]scoredElement, 0, len(groups))
	for _, g := range groups {
		p := safeRatio(g.Forecast, totalF)
		q := safeRatio(g.Actual, totalV)
		ep := explanatoryPower(g.Actual, g.Forecast, change)
		combo := make(kpi.Combination, s.Schema.NumAttributes())
		s.DecodeGroup(ix, g.Group, combo)
		elems = append(elems, scoredElement{
			combo:    combo,
			surprise: jsDivergence(p, q),
			ep:       ep,
		})
	}
	sort.SliceStable(elems, func(i, j int) bool { return elems[i].surprise > elems[j].surprise })

	var (
		selected   []scoredElement
		cumulative float64
		surprise   float64
	)
	for _, e := range elems {
		if e.ep <= l.cfg.TEEP {
			continue
		}
		selected = append(selected, e)
		cumulative += e.ep
		surprise += e.surprise
		if cumulative > l.cfg.TEP {
			break
		}
	}
	if len(selected) == 0 {
		return candidate{}, false
	}
	// Original Adtributor rejects sets that fail to reach TEP outright;
	// on KPI data with background forecast noise no attribute may reach
	// it, so — like the adaptation evaluated in the RAPMiner paper,
	// which still localizes about a third of the (1-D) RAPs on RAPMD —
	// incomplete explanations are kept but demoted below complete ones.
	if cumulative <= l.cfg.TEP {
		surprise *= cumulative / l.cfg.TEP
	}
	return candidate{attr: attr, elements: selected, surprise: surprise}, true
}

// explanatoryPower is (v_ij - f_ij) / (V - F): the share of the overall KPI
// change attributed to the element. When the overall change is (near) zero
// the measure is undefined and treated as zero.
func explanatoryPower(v, f, change float64) float64 {
	if math.Abs(change) < 1e-9 {
		return 0
	}
	return (v - f) / change
}

// jsDivergence is the per-element Jensen-Shannon surprise used by
// Adtributor: 0.5 * (p log(2p/(p+q)) + q log(2q/(p+q))).
func jsDivergence(p, q float64) float64 {
	var d float64
	if p > 0 && p+q > 0 {
		d += 0.5 * p * math.Log(2*p/(p+q))
	}
	if q > 0 && p+q > 0 {
		d += 0.5 * q * math.Log(2*q/(p+q))
	}
	return d
}

func safeRatio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
