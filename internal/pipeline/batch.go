package pipeline

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kpi"
	"repro/internal/localize"
	"repro/internal/obs"
)

// ErrBatchBusy is returned when admitting a batch would exceed the
// executor's queue capacity. Callers translate it into backpressure — the
// HTTP layer answers 503 with Retry-After — instead of letting work pile up
// unboundedly behind the worker pool.
var ErrBatchBusy = errors.New("pipeline: batch queue full")

// batch stage names for pipeline_batch_stage_seconds.
const (
	stageBatchDecode   = "decode"
	stageBatchWait     = "wait"
	stageBatchLocalize = "localize"
)

// subSecondBuckets resolves per-item latencies from 100µs to 10s.
var subSecondBuckets = []float64{0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}

// BatchExecutor runs many-snapshot localization requests over a fixed pool
// of worker slots with admission control. Items from all concurrent batches
// share the same slots, so total localization parallelism is bounded by
// workers no matter how many requests are in flight; a batch whose items
// would push the pending count past the queue capacity is rejected whole
// with ErrBatchBusy rather than enqueued.
//
// The executor publishes its saturation to reg:
//
//	pipeline_batch_queue_depth          gauge, admitted items not yet finished
//	pipeline_batch_items_total          counter, items localized (label ok/error)
//	pipeline_batch_batches_total        counter, batches by outcome (ok/rejected)
//	pipeline_batch_stage_seconds{stage} histogram, decode / wait / localize
type BatchExecutor struct {
	workers int
	// capacity bounds admitted-but-unfinished items: running + queued.
	capacity int
	slots    chan struct{}
	pending  atomic.Int64

	depth       *obs.Gauge
	itemsOK     *obs.Counter
	itemsErr    *obs.Counter
	batchesOK   *obs.Counter
	batchesBusy *obs.Counter
	stages      map[string]*obs.Histogram
}

// NewBatchExecutor builds an executor with the given localization
// parallelism and queue depth. workers <= 0 defaults to 1. queue is the
// number of items that may wait beyond the running ones; queue < 0 defaults
// to 4x workers but no less than 16, so small machines still absorb a
// typical batch. reg nil means the default registry.
func NewBatchExecutor(reg *obs.Registry, workers, queue int) *BatchExecutor {
	if reg == nil {
		reg = obs.Default()
	}
	if workers <= 0 {
		workers = 1
	}
	if queue < 0 {
		queue = 4 * workers
		if queue < 16 {
			queue = 16
		}
	}
	e := &BatchExecutor{
		workers:  workers,
		capacity: workers + queue,
		slots:    make(chan struct{}, workers),
		depth: reg.Gauge("pipeline_batch_queue_depth",
			"Batch items admitted and not yet finished (running + waiting)."),
		itemsOK: reg.Counter("pipeline_batch_items_total",
			"Batch items localized, by outcome.", "outcome", "ok"),
		itemsErr: reg.Counter("pipeline_batch_items_total",
			"Batch items localized, by outcome.", "outcome", "error"),
		batchesOK: reg.Counter("pipeline_batch_batches_total",
			"Batch requests, by admission outcome.", "outcome", "ok"),
		batchesBusy: reg.Counter("pipeline_batch_batches_total",
			"Batch requests, by admission outcome.", "outcome", "rejected"),
		stages: make(map[string]*obs.Histogram),
	}
	for _, s := range []string{stageBatchDecode, stageBatchWait, stageBatchLocalize} {
		e.stages[s] = reg.Histogram("pipeline_batch_stage_seconds",
			"Per-item wall time of the batch pipeline stages.", subSecondBuckets, "stage", s)
	}
	return e
}

// Workers reports the executor's localization parallelism.
func (e *BatchExecutor) Workers() int { return e.workers }

// Capacity reports the maximum admitted-but-unfinished items.
func (e *BatchExecutor) Capacity() int { return e.capacity }

// Depth reports the items currently admitted and not yet finished
// (running + waiting) — the instantaneous queue saturation next to
// Capacity. The pending counter is the source of truth the
// pipeline_batch_queue_depth gauge mirrors.
func (e *BatchExecutor) Depth() int { return int(e.pending.Load()) }

// ObserveDecode records the request-decoding latency of one batch; the
// decode stage runs in the caller (it has the request body), not the pool.
func (e *BatchExecutor) ObserveDecode(elapsed time.Duration) {
	e.stages[stageBatchDecode].Observe(elapsed.Seconds())
}

// admit reserves n items against capacity, all-or-nothing.
//
// The gauge mirrors the pending counter with commutative Add/Dec deltas
// rather than Set snapshots: a Set of a precomputed value (cur+n here, the
// Add result in finish) can land after concurrent releases and publish a
// stale-high depth that nothing ever corrects. Deltas commute, so the gauge
// always converges to the counter no matter how the publications interleave.
func (e *BatchExecutor) admit(n int) bool {
	for {
		cur := e.pending.Load()
		if cur+int64(n) > int64(e.capacity) {
			return false
		}
		if e.pending.CompareAndSwap(cur, cur+int64(n)) {
			e.depth.Add(float64(n))
			return true
		}
	}
}

// finish releases one admitted item.
func (e *BatchExecutor) finish() {
	e.pending.Add(-1)
	e.depth.Dec()
}

// BatchResult pairs one snapshot's localization outcome with its error.
// Exactly one of Result/Err is meaningful.
type BatchResult struct {
	Result localize.Result
	Err    error
}

// Execute localizes every snapshot with l at the given k, fanning items
// across the executor's worker slots. Results are positional. The whole
// batch is rejected with ErrBatchBusy when its items do not fit the queue.
// Canceling ctx fails the not-yet-started items with ctx.Err(); items
// already holding a slot run under ctx through localize.SafeLocalize, so
// they stop at their next safe point with a degraded partial result
// instead of pinning the slot. A panicking item fails only itself:
// SafeLocalize converts the panic into the item's error (stack logged),
// keeping one poisoned snapshot from killing the process or failing its
// batch neighbors.
func (e *BatchExecutor) Execute(ctx context.Context, l localize.Localizer, snapshots []*kpi.Snapshot, k int) ([]BatchResult, error) {
	out := make([]BatchResult, len(snapshots))
	if len(snapshots) == 0 {
		e.batchesOK.Inc()
		return out, nil
	}
	if !e.admit(len(snapshots)) {
		e.batchesBusy.Inc()
		return nil, ErrBatchBusy
	}
	e.batchesOK.Inc()
	var wg sync.WaitGroup
	for i := range snapshots {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer e.finish()
			waitStart := time.Now()
			select {
			case e.slots <- struct{}{}:
			case <-ctx.Done():
				out[i] = BatchResult{Err: ctx.Err()}
				e.itemsErr.Inc()
				return
			}
			e.stages[stageBatchWait].Observe(time.Since(waitStart).Seconds())
			defer func() { <-e.slots }()
			start := time.Now()
			res, err := localize.SafeLocalize(ctx, l, snapshots[i], k)
			e.stages[stageBatchLocalize].Observe(time.Since(start).Seconds())
			out[i] = BatchResult{Result: res, Err: err}
			if err != nil {
				e.itemsErr.Inc()
			} else {
				e.itemsOK.Inc()
			}
		}(i)
	}
	wg.Wait()
	return out, nil
}
