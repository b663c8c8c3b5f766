package rapminer

import (
	"context"
	"sync/atomic"
	"time"
)

// Degradation reasons reported by Diagnostics.DegradedReason and
// localize.Result.DegradedReason when a run stops before exhausting the
// search (best-so-far candidates are still returned and ranked).
const (
	// DegradedCanceled: the caller's context was canceled.
	DegradedCanceled = "canceled"
	// DegradedDeadline: the context deadline or Config.MaxDuration expired.
	DegradedDeadline = "deadline exceeded"
	// DegradedMaxCuboids: the run scanned Config.MaxCuboids cuboids.
	DegradedMaxCuboids = "max cuboids"
)

// runBudget bounds one localization run: the caller's context (cancellation
// and deadline), the configured wall-clock budget, and the configured cuboid
// budget. The merging goroutine polls exceeded() between cuboids — the only
// mutating method — while scan workers poll the read-only expired() hook, so
// the budget needs no lock for the merge-side state.
//
// Determinism: a budget that never trips leaves the search bit-identical to
// an unbudgeted run — every check is a pure read until the moment of
// tripping, and tripping is monotonic (once exceeded, always exceeded).
type runBudget struct {
	ctx         context.Context // nil = no cancellation source
	deadline    time.Time       // earliest of ctx deadline and MaxDuration
	hasDeadline bool
	maxCuboids  int // 0 = unlimited

	// cuboids counts cuboids merged so far; owned by the merge goroutine.
	cuboids int
	// reason is set once on the first trip; owned by the merge goroutine.
	reason string
	// tripped mirrors reason != "" for concurrent readers (scan workers).
	tripped atomic.Bool
}

// newRunBudget derives the run's budget from the context and configuration.
// The returned budget is never nil; with no context, deadline, or cuboid cap
// every check is a cheap constant false.
func newRunBudget(ctx context.Context, cfg Config) *runBudget {
	b := &runBudget{maxCuboids: cfg.MaxCuboids}
	if ctx != nil && ctx.Done() != nil {
		b.ctx = ctx
	}
	if ctx != nil {
		if d, ok := ctx.Deadline(); ok {
			b.deadline, b.hasDeadline = d, true
		}
	}
	if cfg.MaxDuration > 0 {
		d := time.Now().Add(cfg.MaxDuration)
		if !b.hasDeadline || d.Before(b.deadline) {
			b.deadline, b.hasDeadline = d, true
		}
	}
	return b
}

// active reports whether the budget can ever trip; an inactive budget lets
// callers skip polling entirely.
func (b *runBudget) active() bool {
	return b.ctx != nil || b.hasDeadline || b.maxCuboids > 0
}

// noteCuboid records one merged cuboid against the cuboid cap. Merge
// goroutine only.
func (b *runBudget) noteCuboid() { b.cuboids++ }

// exceeded reports whether the budget has tripped, recording the reason on
// the first trip. Merge goroutine only; between-cuboid granularity keeps the
// time checks off the per-combination hot path.
func (b *runBudget) exceeded() bool {
	if b.reason != "" {
		return true
	}
	switch {
	case b.maxCuboids > 0 && b.cuboids >= b.maxCuboids:
		b.reason = DegradedMaxCuboids
	case b.ctx != nil && b.ctx.Err() != nil:
		if b.ctx.Err() == context.DeadlineExceeded {
			b.reason = DegradedDeadline
		} else {
			b.reason = DegradedCanceled
		}
	case b.hasDeadline && !time.Now().Before(b.deadline):
		b.reason = DegradedDeadline
	default:
		return false
	}
	b.tripped.Store(true)
	return true
}

// expired is the concurrent-safe cancellation hook polled by scan workers
// (kpi.Halt). It reads only monotonic state — the trip flag, the context's
// done state, and the wall clock against a fixed deadline — so a worker
// observing true guarantees the merge goroutine's next exceeded() also
// trips.
func (b *runBudget) expired() bool {
	if b.tripped.Load() {
		return true
	}
	if b.ctx != nil && b.ctx.Err() != nil {
		return true
	}
	return b.hasDeadline && !time.Now().Before(b.deadline)
}

// halt returns the budget as a scan cancellation hook, or nil when the
// budget cannot trip (nil keeps the halt-polling branch out of scans).
func (b *runBudget) halt() func() bool {
	if b == nil || !b.active() {
		return nil
	}
	return b.expired
}
