// Package localize defines the interface shared by every anomaly
// localization method in this repository (RAPMiner and the four baselines),
// so that the experiment harness, benchmarks and examples can drive them
// uniformly.
package localize

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/kpi"
)

// ScoredPattern is one root-anomaly-pattern candidate with the method's
// internal ranking score (higher is better).
type ScoredPattern struct {
	Combo kpi.Combination
	Score float64
}

// Result is the ranked output of a localization run.
type Result struct {
	// Patterns is sorted by descending score.
	Patterns []ScoredPattern
	// Degraded reports that the run stopped early — cancellation, an
	// expired deadline, or an exhausted per-run budget — and Patterns
	// holds only the best-so-far candidates found up to the stop point.
	Degraded bool
	// DegradedReason says why a degraded run stopped ("canceled",
	// "deadline exceeded", "max cuboids"); empty on complete runs.
	DegradedReason string
}

// TopK returns the first k combinations (or all when fewer are available).
func (r Result) TopK(k int) []kpi.Combination {
	if k > len(r.Patterns) {
		k = len(r.Patterns)
	}
	out := make([]kpi.Combination, k)
	for i := 0; i < k; i++ {
		out[i] = r.Patterns[i].Combo
	}
	return out
}

// Format renders the result one pattern per line in the paper's notation.
func (r Result) Format(s *kpi.Schema) string {
	var b strings.Builder
	for i, p := range r.Patterns {
		fmt.Fprintf(&b, "%2d. %s  score=%.4f\n", i+1, p.Combo.Format(s), p.Score)
	}
	return b.String()
}

// Localizer mines root anomaly patterns from a labeled snapshot. k is the
// number of patterns the caller wants returned; methods that cannot honor k
// (e.g. Squeeze, see Section V-E2 of the paper) may return a different
// count.
type Localizer interface {
	// Localize returns up to k ranked root-anomaly-pattern candidates.
	Localize(snapshot *kpi.Snapshot, k int) (Result, error)
	// Name identifies the method in reports ("RAPMiner", "Squeeze", ...).
	Name() string
}

// ContextLocalizer is a Localizer whose runs honor context cancellation: a
// canceled or deadline-expired ctx stops the run at its next safe point and
// returns the best-so-far candidates as a degraded partial result
// (Result.Degraded) instead of running to completion. Serving layers
// type-assert to it so per-request deadlines actually bound localization
// work rather than only gating whether it starts.
type ContextLocalizer interface {
	Localizer
	// LocalizeContext is Localize under ctx. A nil ctx behaves like
	// context.Background().
	LocalizeContext(ctx context.Context, snapshot *kpi.Snapshot, k int) (Result, error)
}

// SortPatterns sorts candidates by descending score, breaking ties first by
// shallower layer (coarser pattern wins) and then by combination key order
// (Combination.CompareKey) so results are deterministic.
func SortPatterns(ps []ScoredPattern) {
	sort.SliceStable(ps, func(i, j int) bool {
		if ps[i].Score != ps[j].Score {
			return ps[i].Score > ps[j].Score
		}
		li, lj := ps[i].Combo.Layer(), ps[j].Combo.Layer()
		if li != lj {
			return li < lj
		}
		return ps[i].Combo.CompareKey(ps[j].Combo) < 0
	})
}
