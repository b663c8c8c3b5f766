// Package ensemble combines several localization methods with reciprocal
// rank fusion. The RAPMiner paper observes that different methods win on
// different workload shapes (Fig. 8: Squeeze on some 2-D groups, FP-growth
// on (2,1)/(3,3), RAPMiner on 1-D and RAPMD); fusing their rankings is the
// natural "supplement" extension — a pattern several methods agree on is a
// stronger RAP candidate than any single method's opinion.
package ensemble

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/kpi"
	"repro/internal/localize"
)

// rrfK is the standard reciprocal-rank-fusion damping constant.
const rrfK = 60

// Localizer fuses the rankings of its member methods.
type Localizer struct {
	members []localize.Localizer
}

var _ localize.Localizer = (*Localizer)(nil)

// New builds an ensemble over at least one member.
func New(members ...localize.Localizer) (*Localizer, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("ensemble: no members")
	}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("ensemble: member %d is nil", i)
		}
	}
	return &Localizer{members: members}, nil
}

// Name implements localize.Localizer.
func (l *Localizer) Name() string { return "Ensemble" }

// Localize implements localize.Localizer: each member is asked for a
// generous candidate list, and candidates are re-ranked by
// sum over members of 1 / (rrfK + rank).
func (l *Localizer) Localize(snapshot *kpi.Snapshot, k int) (localize.Result, error) {
	return l.LocalizeContext(context.Background(), snapshot, k)
}

// LocalizeContext implements localize.Localizer. Members run sequentially
// under ctx through localize.SafeLocalize, so each stops at its own safe
// point and a panicking member becomes an error instead of unwinding the
// vote. If any member returns a degraded partial, the fused result is
// marked degraded too (the vote was taken over partial rankings); its
// reason lists the members' distinct reasons in member order.
func (l *Localizer) LocalizeContext(ctx context.Context, snapshot *kpi.Snapshot, k int) (localize.Result, error) {
	if snapshot == nil {
		return localize.Result{}, fmt.Errorf("ensemble: nil snapshot")
	}
	if k <= 0 {
		return localize.Result{}, fmt.Errorf("ensemble: k = %d, want > 0", k)
	}
	askK := 3 * k
	type fused struct {
		combo kpi.Combination
		score float64
		votes int
	}
	pool := make(map[string]*fused)
	var degraded bool
	var reasons []string
	for _, m := range l.members {
		res, err := localize.SafeLocalize(ctx, m, snapshot, askK)
		if err != nil {
			return localize.Result{}, fmt.Errorf("ensemble: %s: %w", m.Name(), err)
		}
		if res.Degraded {
			degraded = true
			if !slices.Contains(reasons, res.DegradedReason) {
				reasons = append(reasons, res.DegradedReason)
			}
		}
		for rank, p := range res.Patterns {
			key := p.Combo.Key()
			f, ok := pool[key]
			if !ok {
				f = &fused{combo: p.Combo}
				pool[key] = f
			}
			f.score += 1 / float64(rrfK+rank+1)
			f.votes++
		}
	}

	// Drain the pool in lexicographic key order so the pre-sort slice —
	// and with it the final ranking on tied RRF scores — never depends
	// on map iteration order. (Combination keys are unique per pattern,
	// so key order is a total order over the candidates.)
	keys := make([]string, 0, len(pool))
	for key := range pool {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	out := make([]localize.ScoredPattern, 0, len(pool))
	for _, key := range keys {
		f := pool[key]
		out = append(out, localize.ScoredPattern{Combo: f.combo, Score: f.score})
	}
	// SortPatterns ranks by fused score and breaks ties toward coarser
	// patterns first, then lexicographic combination key — with the
	// key-ordered input above, equal-score candidates keep a stable,
	// map-independent order.
	localize.SortPatterns(out)
	if k < len(out) {
		out = out[:k]
	}
	return localize.Result{Patterns: out, Degraded: degraded, DegradedReason: strings.Join(reasons, "; ")}, nil
}
