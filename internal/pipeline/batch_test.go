package pipeline

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/kpi"
	"repro/internal/localize"
	"repro/internal/obs"
)

// blockingLocalizer counts into started and blocks every Localize call
// until release is closed, so tests can hold the executor's slots at will.
type blockingLocalizer struct {
	started chan struct{}
	release chan struct{}
}

func (l *blockingLocalizer) Name() string { return "blocking" }

func (l *blockingLocalizer) Localize(s *kpi.Snapshot, k int) (localize.Result, error) {
	return l.LocalizeContext(context.Background(), s, k)
}

func (l *blockingLocalizer) LocalizeContext(_ context.Context, s *kpi.Snapshot, k int) (localize.Result, error) {
	l.started <- struct{}{}
	<-l.release
	return localize.Result{}, nil
}

// indexLocalizer returns a distinguishable result per snapshot, so
// positional integrity is checkable.
type indexLocalizer struct{}

func (indexLocalizer) Name() string { return "index" }

func (r indexLocalizer) Localize(s *kpi.Snapshot, k int) (localize.Result, error) {
	return r.LocalizeContext(context.Background(), s, k)
}

func (indexLocalizer) LocalizeContext(_ context.Context, s *kpi.Snapshot, k int) (localize.Result, error) {
	if s.Len() == 1 {
		return localize.Result{}, errors.New("single-leaf snapshot rejected")
	}
	// Tag the result with the snapshot's leaf count so positional
	// integrity is checkable.
	return localize.Result{Patterns: []localize.ScoredPattern{{Score: float64(s.Len())}}}, nil
}

// batchSnapshots builds n snapshots with distinct leaf counts (2, 3, ...).
func batchSnapshots(t *testing.T, n int) []*kpi.Snapshot {
	t.Helper()
	out := make([]*kpi.Snapshot, n)
	for i := range out {
		out[i] = batchSnapshot(t, i+2)
	}
	return out
}

func batchSnapshot(t *testing.T, leaves int) *kpi.Snapshot {
	t.Helper()
	vals := make([]string, leaves)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%d", i)
	}
	s := kpi.MustSchema(kpi.Attribute{Name: "a", Values: vals})
	ls := make([]kpi.Leaf, leaves)
	for i := range ls {
		ls[i] = kpi.Leaf{Combo: kpi.Combination{int32(i)}, Actual: 1, Forecast: 1}
	}
	snap, err := kpi.NewSnapshot(s, ls)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestBatchExecutorPositionalResults(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewBatchExecutor(reg, 4, -1)
	snaps := batchSnapshots(t, 6)
	snaps = append([]*kpi.Snapshot{batchSnapshot(t, 1)}, snaps...) // item 0 errors
	results, err := e.Execute(context.Background(), indexLocalizer{}, snaps, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(snaps) {
		t.Fatalf("%d results, want %d", len(results), len(snaps))
	}
	if results[0].Err == nil {
		t.Error("item 0 should have failed")
	}
	for i := 1; i < len(results); i++ {
		if results[i].Err != nil {
			t.Fatalf("item %d: %v", i, results[i].Err)
		}
		if want := float64(snaps[i].Len()); results[i].Result.Patterns[0].Score != want {
			t.Errorf("item %d: score %v, want %v", i, results[i].Result.Patterns[0].Score, want)
		}
	}
	if got := e.pending.Load(); got != 0 {
		t.Errorf("pending = %d after completion, want 0", got)
	}
}

func TestBatchExecutorBackpressure(t *testing.T) {
	reg := obs.NewRegistry()
	e := NewBatchExecutor(reg, 1, 0) // capacity: 1 item total
	if e.Capacity() != 1 {
		t.Fatalf("capacity = %d, want 1", e.Capacity())
	}
	bl := &blockingLocalizer{started: make(chan struct{}, 1), release: make(chan struct{})}
	first := make(chan []BatchResult, 1)
	go func() {
		res, err := e.Execute(context.Background(), bl, batchSnapshots(t, 1), 3)
		if err != nil {
			t.Error(err)
		}
		first <- res
	}()
	<-bl.started // first batch holds the only slot

	if _, err := e.Execute(context.Background(), indexLocalizer{}, batchSnapshots(t, 1), 3); !errors.Is(err, ErrBatchBusy) {
		t.Fatalf("second batch error = %v, want ErrBatchBusy", err)
	}

	close(bl.release)
	res := <-first
	if len(res) != 1 || res[0].Err != nil {
		t.Fatalf("first batch results = %+v", res)
	}
	// Capacity is free again.
	if _, err := e.Execute(context.Background(), indexLocalizer{}, batchSnapshots(t, 1), 3); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

func TestBatchExecutorOversizedBatchRejected(t *testing.T) {
	e := NewBatchExecutor(obs.NewRegistry(), 2, 1) // capacity 3
	if _, err := e.Execute(context.Background(), indexLocalizer{}, batchSnapshots(t, 4), 3); !errors.Is(err, ErrBatchBusy) {
		t.Fatalf("error = %v, want ErrBatchBusy", err)
	}
}

func TestBatchExecutorCancellation(t *testing.T) {
	e := NewBatchExecutor(obs.NewRegistry(), 1, 1)
	bl := &blockingLocalizer{started: make(chan struct{}, 2), release: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan []BatchResult, 1)
	go func() {
		res, err := e.Execute(ctx, bl, batchSnapshots(t, 2), 3)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	<-bl.started // one item runs; the other waits for the slot
	cancel()     // fails the waiting item
	// Wait for the canceled item to drain (pending 2 -> 1) before releasing
	// the slot, so it cannot grab the freed slot instead of observing the
	// cancellation.
	deadline := time.Now().Add(10 * time.Second)
	for e.pending.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("canceled item never drained")
		}
		time.Sleep(time.Millisecond)
	}
	close(bl.release)
	var res []BatchResult
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("batch did not finish after cancellation")
	}
	var ok, canceled int
	for _, br := range res {
		switch br.Err {
		case nil:
			ok++
		case context.Canceled:
			canceled++
		default:
			t.Fatalf("unexpected error %v", br.Err)
		}
	}
	if ok != 1 || canceled != 1 {
		t.Fatalf("ok=%d canceled=%d, want 1 and 1", ok, canceled)
	}
}
