// Package localize defines the one contract every anomaly localization
// method in this repository implements (RAPMiner, the baselines and the
// ensemble): a labeled snapshot in, ranked patterns out, under a context.
// The experiment harness, the serving layers, benchmarks and examples drive
// every method through it.
package localize

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/kpi"
	"repro/internal/obs"
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
	// Degraded reports that the run stopped early because its context
	// ended — cancellation or an expired deadline — and Patterns holds
	// only the best-so-far candidates found up to the stop point.
	Degraded bool
	// DegradedReason says why a degraded run stopped (DegradedCanceled or
	// DegradedDeadline, from StopReason); empty on complete runs.
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
//
// Every method honors ctx: once ctx is canceled or its deadline passes, the
// run stops at its next safe point and returns its best-so-far candidates
// with Result.Degraded set and the reason from StopReason. The first unit
// of work (an attribute, a cuboid, a pattern base, a search iteration —
// each method's package doc names its safe point) always completes, so a
// run under an already-expired ctx still answers. A nil ctx behaves like
// context.Background().
type Localizer interface {
	// LocalizeContext returns up to k ranked root-anomaly-pattern
	// candidates, stopping early once ctx ends.
	LocalizeContext(ctx context.Context, snapshot *kpi.Snapshot, k int) (Result, error)
	// Localize is LocalizeContext(context.Background(), snapshot, k).
	Localize(snapshot *kpi.Snapshot, k int) (Result, error)
	// Name identifies the method in reports ("RAPMiner", "Squeeze", ...).
	Name() string
}

// Degradation reasons for Result.DegradedReason when a run stops because
// its context ended.
const (
	// DegradedCanceled: the caller's context was canceled.
	DegradedCanceled = "canceled"
	// DegradedDeadline: the context's deadline passed.
	DegradedDeadline = "deadline exceeded"
)

// StopReason maps ctx's state to a degradation reason: "" while ctx is
// live (or nil), DegradedDeadline once its deadline passed, and
// DegradedCanceled once it was canceled.
func StopReason(ctx context.Context) string {
	switch {
	case ctx == nil || ctx.Err() == nil:
		return ""
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		return DegradedDeadline
	}
	return DegradedCanceled
}

// Poll checks a run's context at the run's safe points. Its first Stop
// never stops the run, so the run completes its first unit of work; every
// later Stop stops it once ctx has ended, and Reason then says why. A Poll
// belongs to one goroutine.
type Poll struct {
	ctx    context.Context
	polled bool
	// Reason is the StopReason that stopped the run, or "".
	Reason string
}

// NewPoll polls ctx; a nil ctx never stops the run.
func NewPoll(ctx context.Context) *Poll { return &Poll{ctx: ctx} }

// Stop reports whether the run must stop before its next unit of work.
func (p *Poll) Stop() bool {
	if p.Reason == "" && p.polled {
		p.Reason = StopReason(p.ctx)
	}
	p.polled = true
	return p.Reason != ""
}

// Result wraps the run's ranked patterns, marked degraded when the run
// stopped early.
func (p *Poll) Result(patterns []ScoredPattern) Result {
	return Result{Patterns: patterns, Degraded: p.Reason != "", DegradedReason: p.Reason}
}

// SafeLocalize runs l under ctx with panic isolation: a panic inside the
// localizer — on the calling goroutine, or on a worker goroutine and
// rethrown as a *kpi.ScanPanic — is recovered into an error (the panicking
// goroutine's stack logged through the "localize" component logger)
// instead of unwinding the calling goroutine.
func SafeLocalize(ctx context.Context, l Localizer, snapshot *kpi.Snapshot, k int) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			stack := debug.Stack()
			if sp, ok := r.(*kpi.ScanPanic); ok {
				stack = sp.Stack
			}
			obs.Logger("localize").Error("localizer panicked",
				slog.String("localizer", l.Name()),
				slog.Any("panic", r),
				slog.String("stack", string(stack)))
			res = Result{}
			err = fmt.Errorf("localize: %s panicked: %v", l.Name(), r)
		}
	}()
	return l.LocalizeContext(ctx, snapshot, k)
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
