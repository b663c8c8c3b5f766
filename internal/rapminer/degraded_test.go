package rapminer

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kpi"
	"repro/internal/localize"
)

// countedCtx is a context whose Err turns Canceled after n live reads; its
// Done channel closes only at that moment. localize.Poll reads Err once at
// every safe point but the first, and the scan workers only watch Done, so
// a run under newCountedCtx(n) merges exactly n+1 cuboids and then stops,
// whatever the worker count or the machine's speed.
type countedCtx struct {
	context.Context // Background: no deadline, no values
	mu              sync.Mutex
	left            int
	err             error
	done            chan struct{}
}

func newCountedCtx(n int) *countedCtx {
	return &countedCtx{Context: context.Background(), left: n, done: make(chan struct{})}
}

func (c *countedCtx) Done() <-chan struct{} { return c.done }

func (c *countedCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		if c.left > 0 {
			c.left--
			return nil
		}
		c.err = context.Canceled
		close(c.done)
	}
	return c.err
}

// TestCanceledContextReturnsDeterministicPartial pins the degraded-result
// contract: a context canceled before the run still yields the first
// cuboid's best-so-far candidates (never an empty answer), marked Degraded,
// and the partial result is bit-identical at every worker count — the stop
// lands on a deterministic cuboid boundary.
func TestCanceledContextReturnsDeterministicPartial(t *testing.T) {
	snap := benchCase(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	base := MustNew(DefaultConfig())
	wantRes, wantDiag, err := base.WithWorkers(1).LocalizeWithDiagnosticsContext(ctx, snap, 10)
	if err != nil {
		t.Fatalf("canceled run errored: %v", err)
	}
	if !wantRes.Degraded || wantRes.DegradedReason != localize.DegradedCanceled {
		t.Fatalf("Degraded=%v reason=%q, want true/%q",
			wantRes.Degraded, wantRes.DegradedReason, localize.DegradedCanceled)
	}
	if !wantDiag.Degraded || wantDiag.DegradedReason != localize.DegradedCanceled {
		t.Fatalf("diag Degraded=%v reason=%q", wantDiag.Degraded, wantDiag.DegradedReason)
	}
	if len(wantRes.Patterns) == 0 {
		t.Fatal("degraded run returned no best-so-far candidates")
	}
	// The guaranteed first cuboid is the only one merged under a
	// pre-canceled context.
	if wantDiag.CuboidsVisited != 1 {
		t.Fatalf("visited %d cuboids under pre-canceled ctx, want 1", wantDiag.CuboidsVisited)
	}
	for _, workers := range []int{2, 4, 8} {
		gotRes, gotDiag, err := base.WithWorkers(workers).LocalizeWithDiagnosticsContext(ctx, snap, 10)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("workers %d: degraded result diverges\n got %+v\nwant %+v", workers, gotRes, wantRes)
		}
		if !reflect.DeepEqual(gotDiag, wantDiag) {
			t.Errorf("workers %d: degraded diagnostics diverge", workers)
		}
	}
}

// TestCountedStopCutoff pins the deterministic cut-off: a context that
// ends after n safe-point reads merges exactly n+1 cuboids, returns the
// candidate prefix those cuboids produced, and the cut-off is identical at
// every worker count.
func TestCountedStopCutoff(t *testing.T) {
	snap := benchCase(t)
	const n = 2
	base := MustNew(DefaultConfig())
	wantRes, wantDiag, err := base.WithWorkers(1).LocalizeWithDiagnosticsContext(newCountedCtx(n), snap, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !wantRes.Degraded || wantRes.DegradedReason != localize.DegradedCanceled {
		t.Fatalf("Degraded=%v reason=%q, want true/%q",
			wantRes.Degraded, wantRes.DegradedReason, localize.DegradedCanceled)
	}
	if wantDiag.CuboidsVisited != n+1 {
		t.Fatalf("visited %d cuboids, want exactly n+1=%d", wantDiag.CuboidsVisited, n+1)
	}
	if len(wantRes.Patterns) == 0 {
		t.Fatal("cut-off run returned no candidates")
	}
	for _, workers := range []int{2, 4, 8} {
		gotRes, gotDiag, err := base.WithWorkers(workers).LocalizeWithDiagnosticsContext(newCountedCtx(n), snap, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRes, wantRes) || !reflect.DeepEqual(gotDiag, wantDiag) {
			t.Errorf("workers %d: counted cut-off not deterministic", workers)
		}
	}

	// A context that outlives the search never degrades and changes
	// nothing.
	full, fullDiag, err := base.WithWorkers(1).LocalizeWithDiagnosticsContext(context.Background(), snap, 10)
	if err != nil {
		t.Fatal(err)
	}
	loose, looseDiag, err := base.WithWorkers(1).LocalizeWithDiagnosticsContext(newCountedCtx(fullDiag.CuboidsVisited+100), snap, 10)
	if err != nil {
		t.Fatal(err)
	}
	if loose.Degraded || looseDiag.Degraded {
		t.Fatal("a context that never ended reported degraded")
	}
	if !reflect.DeepEqual(full, loose) {
		t.Fatal("a live context changed the result")
	}
}

// largeCase scales benchCase's schema up to ~288k leaves (120x8x6x50) with
// the same two injected RAP shapes, big enough that no machine localizes it
// inside a single-digit-millisecond deadline.
func largeCase(t testing.TB) *kpi.Snapshot {
	t.Helper()
	mk := func(prefix string, n int) kpi.Attribute {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = prefix + string(rune('a'+i/26)) + string(rune('a'+i%26))
		}
		return kpi.Attribute{Name: prefix, Values: vals}
	}
	dims := []int32{120, 8, 6, 50}
	s := kpi.MustSchema(mk("L", int(dims[0])), mk("A", int(dims[1])), mk("O", int(dims[2])), mk("S", int(dims[3])))
	raps := []kpi.Combination{
		{4, kpi.Wildcard, kpi.Wildcard, kpi.Wildcard},
		{kpi.Wildcard, 1, kpi.Wildcard, 7},
	}
	leaves := make([]kpi.Leaf, 0, s.NumLeaves())
	for l := int32(0); l < dims[0]; l++ {
		for a := int32(0); a < dims[1]; a++ {
			for o := int32(0); o < dims[2]; o++ {
				for w := int32(0); w < dims[3]; w++ {
					combo := kpi.Combination{l, a, o, w}
					leaf := kpi.Leaf{Combo: combo, Actual: 100, Forecast: 100}
					for _, rap := range raps {
						if rap.Matches(combo) {
							leaf.Anomalous = true
							leaf.Actual = 20
							break
						}
					}
					leaves = append(leaves, leaf)
				}
			}
		}
	}
	snap, err := kpi.NewSnapshot(s, leaves)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestTightDeadlineReturnsPartialFast is the acceptance scenario: a 1ms
// deadline against a large corpus must come back quickly (well under the
// un-deadlined run) with Degraded=true and non-empty best-so-far
// candidates, while the same request without a deadline stays bit-identical
// to the sequential engine at any worker count (pinned separately by
// TestParallelSearchMatchesSequential and TestContextDoesNotChangeResults).
func TestTightDeadlineReturnsPartialFast(t *testing.T) {
	snap := largeCase(t)
	m := MustNew(DefaultConfig()).WithWorkers(4)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := m.LocalizeContext(ctx, snap, 10)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Skip("snapshot localized inside 1ms; machine too fast to degrade")
	}
	if res.DegradedReason != localize.DegradedDeadline {
		t.Fatalf("reason %q, want %q", res.DegradedReason, localize.DegradedDeadline)
	}
	if len(res.Patterns) == 0 {
		t.Fatal("deadline-expired run returned no best-so-far candidates")
	}
	// Generous CI bound: the contract is "a few scan strides past the
	// deadline", not "runs to completion".
	if elapsed > 250*time.Millisecond {
		t.Fatalf("degraded run took %v, want a prompt return", elapsed)
	}
}

// TestCountedStopLargeCase is TestTightDeadlineReturnsPartialFast without
// the wall clock: on the same large corpus, a run cut off after its first
// safe points answers degraded with non-empty best-so-far candidates, the
// same at every worker count, on any machine.
func TestCountedStopLargeCase(t *testing.T) {
	snap := largeCase(t)
	base := MustNew(DefaultConfig())
	want, err := base.WithWorkers(1).LocalizeContext(newCountedCtx(1), snap, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Degraded || want.DegradedReason != localize.DegradedCanceled {
		t.Fatalf("Degraded=%v reason=%q, want true/%q", want.Degraded, want.DegradedReason, localize.DegradedCanceled)
	}
	if len(want.Patterns) == 0 {
		t.Fatal("cut-off run returned no best-so-far candidates")
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := base.WithWorkers(workers).LocalizeContext(newCountedCtx(1), snap, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers %d: cut-off result diverges\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestExpiredDeadlineDegrades checks a context whose deadline has passed
// degrades the run with the deadline reason and keeps the guaranteed
// first cuboid's work.
func TestExpiredDeadlineDegrades(t *testing.T) {
	snap := benchCase(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	res, diag, err := MustNew(DefaultConfig()).LocalizeWithDiagnosticsContext(ctx, snap, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.DegradedReason != localize.DegradedDeadline {
		t.Fatalf("Degraded=%v reason=%q, want true/%q", res.Degraded, res.DegradedReason, localize.DegradedDeadline)
	}
	if len(res.Patterns) == 0 || diag.CuboidsVisited == 0 {
		t.Fatal("deadline-expired run dropped its best-so-far work")
	}
}

// TestContextDoesNotChangeResults pins the determinism guarantee the
// tentpole must preserve: threading a live (never-canceled, no-deadline)
// context through the search changes nothing versus the context-free
// sequential engine, at any worker count.
func TestContextDoesNotChangeResults(t *testing.T) {
	snap := benchCase(t)
	base := MustNew(DefaultConfig())
	wantRes, wantDiag, err := base.WithWorkers(1).LocalizeWithDiagnosticsContext(context.Background(), snap, 10)
	if err != nil {
		t.Fatal(err)
	}
	if wantRes.Degraded {
		t.Fatal("unbudgeted run reported degraded")
	}
	for _, workers := range []int{1, 2, 8} {
		gotRes, gotDiag, err := base.WithWorkers(workers).
			LocalizeWithDiagnosticsContext(context.Background(), snap, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotRes, wantRes) {
			t.Errorf("workers %d: ctx-threaded result diverges from sequential", workers)
		}
		if !reflect.DeepEqual(gotDiag, wantDiag) {
			t.Errorf("workers %d: ctx-threaded diagnostics diverge from sequential", workers)
		}
	}
}

// poisonedSnapshot builds a snapshot that panics inside the search: its leaf
// carries an attribute code outside the schema's cardinality (bypassing
// NewSnapshot validation), so the cuboid indexer's array access faults. This
// models a corrupted upstream feed.
func poisonedSnapshot() *kpi.Snapshot {
	s := kpi.MustSchema(
		kpi.Attribute{Name: "A", Values: []string{"a1", "a2"}},
		kpi.Attribute{Name: "B", Values: []string{"b1", "b2"}},
	)
	return &kpi.Snapshot{Schema: s, Leaves: []kpi.Leaf{
		{Combo: kpi.Combination{0, 0}, Actual: 1, Forecast: 100, Anomalous: true},
		{Combo: kpi.Combination{9, 1}, Actual: 100, Forecast: 100}, // code 9 out of range
	}}
}

// TestPanicIsolatedToError checks a panic anywhere in the run — on the
// calling goroutine or a worker — is converted to the call's error instead
// of crashing the process.
func TestPanicIsolatedToError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m := MustNew(DefaultConfig()).WithWorkers(workers)
		res, err := m.Localize(poisonedSnapshot(), 3)
		if err == nil {
			t.Fatalf("workers %d: poisoned snapshot localized without error", workers)
		}
		if !strings.Contains(err.Error(), "panic") {
			t.Fatalf("workers %d: error %q does not mention the panic", workers, err)
		}
		if len(res.Patterns) != 0 {
			t.Fatalf("workers %d: panicked run returned patterns", workers)
		}
	}
}
