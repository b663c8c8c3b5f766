package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a settable rollClock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestRollingHistogramWindowQuantile(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	r := NewRollingHistogram([]float64{0.1, 0.5, 1, 5}, time.Second, time.Minute)
	r.now = clk.now

	for i := 0; i < 90; i++ {
		r.Observe(0.05) // all land in the first bucket
	}
	w := r.Window(time.Minute)
	if got := w.Count(); got != 90 {
		t.Fatalf("Count = %d, want 90", got)
	}
	if q := w.Quantile(0.99); q > 0.1 {
		t.Errorf("p99 = %v, want <= 0.1", q)
	}

	// Two minutes later the old observations have aged out of every window
	// the ring can answer.
	clk.advance(2 * time.Minute)
	r.Observe(3) // lands between bounds 1 and 5
	w = r.Window(time.Minute)
	if got := w.Count(); got != 1 {
		t.Fatalf("Count after aging = %d, want 1", got)
	}
	if q := w.Quantile(0.5); q <= 1 || q > 5 {
		t.Errorf("median = %v, want in (1, 5]", q)
	}
}

func TestRollingHistogramPartialWindow(t *testing.T) {
	clk := &fakeClock{t: time.Unix(5_000_000, 0)}
	r := NewRollingHistogram([]float64{1, 10}, time.Second, 5*time.Minute)
	r.now = clk.now

	r.Observe(0.5)
	clk.advance(30 * time.Second)
	r.Observe(0.5)

	// A 10s window sees only the newest observation; 1m sees both.
	if got := r.Window(10 * time.Second).Count(); got != 1 {
		t.Errorf("10s window Count = %d, want 1", got)
	}
	if got := r.Window(time.Minute).Count(); got != 2 {
		t.Errorf("1m window Count = %d, want 2", got)
	}
}

func TestRollingCounterRate(t *testing.T) {
	clk := &fakeClock{t: time.Unix(2_000_000, 0)}
	c := NewRollingCounter(time.Second, 5*time.Minute)
	c.now = clk.now

	for i := 0; i < 60; i++ {
		c.Inc()
		if i < 59 {
			clk.advance(time.Second)
		}
	}
	if got := c.Sum(time.Minute); got != 60 {
		t.Fatalf("Sum(1m) = %v, want 60", got)
	}
	if got := c.Rate(time.Minute); got != 1 {
		t.Errorf("Rate(1m) = %v, want 1", got)
	}
	// After five idle minutes everything has aged out.
	clk.advance(5 * time.Minute)
	if got := c.Sum(5 * time.Minute); got != 0 {
		t.Errorf("Sum after idle = %v, want 0", got)
	}
}

func TestRollingConcurrent(t *testing.T) {
	r := NewRollingHistogram(ExpBuckets(0.001, 2, 12), time.Second, time.Minute)
	c := NewRollingCounter(time.Second, time.Minute)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Observe(0.01)
				c.Inc()
				_ = r.Window(time.Minute).Quantile(0.99)
				_ = c.Rate(time.Minute)
			}
		}()
	}
	wg.Wait()
	if got := r.Window(time.Minute).Count(); got != 4000 {
		t.Errorf("Count = %d, want 4000", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v, want 0", got)
	}
	// 10 observations uniformly in (1, 2].
	for i := 0; i < 10; i++ {
		h.Observe(1.5)
	}
	if got := h.Quantile(0.5); got < 1 || got > 2 {
		t.Errorf("median = %v, want in [1, 2]", got)
	}
	h.Observe(100) // +Inf bucket clamps to the highest finite bound
	if got := h.Quantile(1); got != 4 {
		t.Errorf("p100 = %v, want 4", got)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("ExpBuckets[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ExpBuckets(0, 2, 3) did not panic")
		}
	}()
	ExpBuckets(0, 2, 3)
}

func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1})
	h.SetExemplarThreshold(0.05)
	h.ObserveExemplar(0.01, "trace-fast") // below threshold: dropped
	h.ObserveExemplar(0.5, "trace-a")
	h.ObserveExemplar(0.7, "trace-b") // replaces trace-a in the same bucket
	h.ObserveExemplar(3, "trace-slow")
	h.ObserveExemplar(0.2, "") // no trace: counts, no exemplar

	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	ex := h.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("Exemplars = %v, want 2 entries", ex)
	}
	if ex[0].TraceID != "trace-b" || ex[0].Value != 0.7 {
		t.Errorf("bucket exemplar = %+v, want trace-b/0.7", ex[0])
	}
	if ex[1].TraceID != "trace-slow" {
		t.Errorf("+Inf exemplar = %+v, want trace-slow", ex[1])
	}

	var buf strings.Builder
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# {trace_id="trace-b"} 0.7`) {
		t.Errorf("OpenMetrics exposition lacks trace-b exemplar:\n%s", out)
	}
	if !strings.Contains(out, `# {trace_id="trace-slow"}`) {
		t.Errorf("OpenMetrics exposition lacks trace-slow exemplar:\n%s", out)
	}
	if strings.Contains(out, "trace-fast") {
		t.Errorf("below-threshold exemplar leaked into exposition:\n%s", out)
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("OpenMetrics exposition lacks the # EOF terminator:\n%s", out)
	}

	// The classic 0.0.4 format has no exemplar syntax: a trailing `#`
	// would make the official parser fail the whole scrape, so the plain
	// exposition must stay exemplar-free.
	var classic strings.Builder
	if err := r.WritePrometheus(&classic); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(classic.String(), "trace_id") || strings.Contains(classic.String(), " # ") {
		t.Errorf("exemplar leaked into the 0.0.4 exposition:\n%s", classic.String())
	}
}

func TestRegisterBuildInfo(t *testing.T) {
	r := NewRegistry()
	RegisterBuildInfo(r)
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "rapminer_build_info{") || !strings.Contains(out, `go_version="go`) {
		t.Errorf("missing build info gauge:\n%s", out)
	}
	if !strings.Contains(out, "process_start_time_seconds") {
		t.Errorf("missing process_start_time_seconds:\n%s", out)
	}
}
