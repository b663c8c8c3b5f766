package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "Jobs.")
	c.Inc()
	c.Add(2.5)
	c.Add(-5) // ignored: counters only go up
	if got := c.Value(); got != 3.5 {
		t.Errorf("Value = %v, want 3.5", got)
	}
	if again := r.Counter("jobs_total", "different help ignored"); again != c {
		t.Error("re-acquiring the series returned a different handle")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("temp", "Temperature.")
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Errorf("Value = %v, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "Latency.", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-106) > 1e-9 {
		t.Errorf("Sum = %v, want 106", h.Sum())
	}
	// Per-bucket (non-cumulative) counts: (-inf,1]=2, (1,2]=1, (2,4]=1, +Inf=1.
	want := []uint64{2, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestLabelOrderCanonicalized(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "", "b", "2", "a", "1")
	b := r.Counter("x_total", "", "a", "1", "b", "2")
	if a != b {
		t.Error("label order created distinct series")
	}
	other := r.Counter("x_total", "", "a", "1", "b", "3")
	if other == a {
		t.Error("different label values shared a series")
	}
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "")
	tests := []struct {
		name string
		f    func()
	}{
		{"bad metric name", func() { r.Counter("bad name", "") }},
		{"odd labels", func() { r.Counter("odd_total", "", "k") }},
		{"bad label name", func() { r.Counter("lbl_total", "", "bad-label", "v") }},
		{"kind clash", func() { r.Gauge("ok_total", "") }},
		{"bad buckets", func() { r.Histogram("h", "", []float64{2, 1}) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			tt.f()
		})
	}
}

// TestConcurrentWriters is the -race stress test: many goroutines hammer
// the same and fresh series of all three kinds while scrapers render the
// registry.
func TestConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 8
		iters   = 2000
	)
	shared := r.Counter("shared_total", "Shared counter.")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			lbl := string(rune('a' + id%4))
			for i := 0; i < iters; i++ {
				shared.Inc()
				r.Counter("worker_total", "", "w", lbl).Add(0.5)
				r.Gauge("worker_gauge", "", "w", lbl).Set(float64(i))
				r.Histogram("worker_hist", "", []float64{10, 100, 1000}, "w", lbl).Observe(float64(i))
			}
		}(w)
	}
	// Concurrent scrapers exercise snapshot vs. acquire.
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Errorf("WritePrometheus: %v", err)
				}
				if err := r.WriteOpenMetrics(&buf); err != nil {
					t.Errorf("WriteOpenMetrics: %v", err)
				}
			}
		}()
	}
	wg.Wait()

	if got, want := shared.Value(), float64(workers*iters); got != want {
		t.Errorf("shared counter = %v, want %v", got, want)
	}
	var sum float64
	var observed uint64
	for _, lbl := range []string{"a", "b", "c", "d"} {
		sum += r.Counter("worker_total", "", "w", lbl).Value()
		observed += r.Histogram("worker_hist", "", nil, "w", lbl).Count()
	}
	if want := float64(workers*iters) * 0.5; math.Abs(sum-want) > 1e-6 {
		t.Errorf("worker counters sum = %v, want %v", sum, want)
	}
	if want := uint64(workers * iters); observed != want {
		t.Errorf("histogram observations = %d, want %d", observed, want)
	}
}

func TestDefaultRegistryIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Error("Default not stable")
	}
	c := Default().Counter("obs_test_default_total", "")
	c.Inc()
	var buf bytes.Buffer
	if err := Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "obs_test_default_total") {
		t.Error("default registry exposition missing registered metric")
	}
}
