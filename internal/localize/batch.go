package localize

import (
	"context"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/kpi"
	"repro/internal/obs"
)

// BatchResult pairs one snapshot's localization outcome with its error.
// Exactly one of Result/Err is meaningful.
type BatchResult struct {
	Result Result
	Err    error
}

// BatchLocalizer is a Localizer that can process many snapshots in one
// call, amortizing fan-out across its own worker pool. Results are
// positional: result i belongs to snapshot i, and a failed item carries its
// error without affecting its neighbors.
type BatchLocalizer interface {
	Localizer
	LocalizeBatch(ctx context.Context, snapshots []*kpi.Snapshot, k int) []BatchResult
}

// BatchLocalize fans the snapshots across a bounded pool of workers, each
// item localized with l. It is the generic implementation behind
// BatchLocalizer for methods whose Localize is safe for concurrent use
// (every method in this repository is). Once ctx is canceled the remaining
// unstarted items are marked with ctx.Err() instead of running; localizers
// implementing ContextLocalizer additionally see ctx inside each item, so
// an in-flight item stops at its next cancellation point with a degraded
// partial result. A panicking item fails only itself: the panic is
// converted to that item's error and its stack logged, so one poisoned
// snapshot cannot take down the process or its batch neighbors.
func BatchLocalize(ctx context.Context, l Localizer, snapshots []*kpi.Snapshot, k, workers int) []BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]BatchResult, len(snapshots))
	if len(snapshots) == 0 {
		return out
	}
	if workers < 1 {
		workers = 1
	}
	if workers > len(snapshots) {
		workers = len(snapshots)
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(snapshots) {
					return
				}
				if err := ctx.Err(); err != nil {
					out[i] = BatchResult{Err: err}
					continue
				}
				res, err := SafeLocalize(ctx, l, snapshots[i], k)
				out[i] = BatchResult{Result: res, Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// SafeLocalize runs one localization with panic isolation: a panic inside
// the localizer — on the calling goroutine, or on a worker goroutine and
// rethrown as a *kpi.ScanPanic — is recovered into an error (the panicking
// goroutine's stack logged through the "localize" component logger)
// instead of unwinding the calling goroutine. Localizers implementing
// ContextLocalizer run under ctx so cancellation bounds the item's work;
// the rest run to completion as plain Localize.
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
	if cl, ok := l.(ContextLocalizer); ok {
		return cl.LocalizeContext(ctx, snapshot, k)
	}
	return l.Localize(snapshot, k)
}
