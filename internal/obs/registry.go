// Package obs is the repository's observability layer: a concurrency-safe
// metrics registry with Prometheus text-format exposition, structured
// logging conventions on log/slog, and lightweight span tracing with an
// in-memory ring buffer. It is stdlib-only so every binary in the module
// can depend on it without pulling external dependencies.
//
// The three pillars share one idiom: a process-wide default (Default
// registry, default logger, default span ring) that commands and handlers
// use directly, plus constructors (NewRegistry, Logger, NewSpanRing) for
// tests and embedders that need isolation.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metricKind discriminates the three metric families.
type metricKind int

const (
	counterKind metricKind = iota + 1
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	default:
		return fmt.Sprintf("kind-%d", int(k))
	}
}

// metricNameRE is the Prometheus metric/label name grammar.
var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Registry holds metric families keyed by name. All methods are safe for
// concurrent use; the returned Counter/Gauge/Histogram handles are lock-free
// on the hot path.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric with its labeled series.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64 // histogram upper bounds, nil otherwise
	series  map[string]*series
}

// series is one (name, labels) time series.
type series struct {
	labels  []string // flattened k1, v1, k2, v2, ... pairs, sorted by key
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// defaultRegistry is the process-wide registry used by Default.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that package-level helpers and
// the HTTP handlers use.
func Default() *Registry { return defaultRegistry }

// Counter returns (registering on first use) the counter for name with the
// given label pairs. Labels are flattened key/value pairs:
//
//	reg.Counter("http_requests_total", "Requests served.", "method", "GET")
//
// Re-acquiring an existing series returns the same handle; help text is
// fixed by the first registration. It panics on a malformed name, an odd
// label count, or a name already registered with a different kind —
// metric declarations are programmer-controlled, so these are bugs, not
// runtime conditions.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	s := r.acquire(name, help, counterKind, nil, labels)
	return s.counter
}

// Gauge returns (registering on first use) the gauge for name and labels.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	s := r.acquire(name, help, gaugeKind, nil, labels)
	return s.gauge
}

// Histogram returns (registering on first use) the fixed-bucket histogram
// for name and labels. buckets are upper bounds in increasing order; a
// final +Inf bucket is implicit. Nil buckets means DefBuckets. All series
// of one family share the first registration's buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	s := r.acquire(name, help, histogramKind, buckets, labels)
	return s.hist
}

// DefBuckets are the default histogram buckets, in seconds, matching the
// Prometheus client defaults so dashboards transfer.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

func (r *Registry) acquire(name, help string, kind metricKind, buckets []float64, labels []string) *series {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %s: odd label count %d", name, len(labels)))
	}
	labels = sortLabelPairs(labels)
	for i := 0; i < len(labels); i += 2 {
		if !metricNameRE.MatchString(labels[i]) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, labels[i]))
		}
	}
	key := labelKey(labels)

	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{name: name, help: help, kind: kind, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = fam
	} else if fam.kind != kind {
		panic(fmt.Sprintf("obs: metric %s already registered as %s, requested %s", name, fam.kind, kind))
	}
	s, ok := fam.series[key]
	if !ok {
		s = &series{labels: labels}
		switch kind {
		case counterKind:
			s.counter = &Counter{}
		case gaugeKind:
			s.gauge = &Gauge{}
		case histogramKind:
			s.hist = newHistogram(fam.buckets)
		}
		fam.series[key] = s
	}
	return s
}

// sortLabelPairs orders the flattened pairs by label name so that
// ("a","1","b","2") and ("b","2","a","1") address the same series.
func sortLabelPairs(labels []string) []string {
	n := len(labels) / 2
	if n <= 1 {
		return labels
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return labels[2*idx[a]] < labels[2*idx[b]] })
	out := make([]string, 0, len(labels))
	for _, i := range idx {
		out = append(out, labels[2*i], labels[2*i+1])
	}
	return out
}

func labelKey(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	key := ""
	for i := 0; i < len(labels); i += 2 {
		key += labels[i] + "\x00" + labels[i+1] + "\x00"
	}
	return key
}

// Counter is a monotonically increasing float64. The zero value is ready to
// use, but counters should be obtained from a Registry so they export.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter. Negative deltas are ignored: a counter only
// goes up.
func (c *Counter) Add(delta float64) {
	if delta < 0 {
		return
	}
	addFloat(&c.bits, delta)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is an arbitrary float64 that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by delta (which may be negative).
func (g *Gauge) Add(delta float64) { addFloat(&g.bits, delta) }

// Inc adds 1.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// addFloat is a lock-free float64 += on uint64 bits.
func addFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram counts observations into fixed buckets (cumulative on export,
// like Prometheus). Observe is lock-free. Buckets may additionally carry a
// trace exemplar — the most recent trace ID observed into the bucket above
// the exemplar threshold — exported in the OpenMetrics exposition and the
// /debug/vars JSON so a slow bucket on a dashboard resolves to a concrete
// traced request.
type Histogram struct {
	upper   []float64 // finite upper bounds, increasing
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
	// exemplars holds one slot per bucket (incl. +Inf); nil entries mean
	// the bucket has seen no exemplar-worthy observation yet.
	exemplars []atomic.Pointer[Exemplar]
	// exemplarMinBits is the float64 bits of the threshold below which
	// ObserveExemplar does not retain the trace ID (0 retains everything).
	exemplarMinBits atomic.Uint64
}

// Exemplar links one histogram bucket to a concrete traced observation, in
// the spirit of OpenMetrics exemplars.
type Exemplar struct {
	TraceID string    `json:"trace_id"`
	Value   float64   `json:"value"`
	Time    time.Time `json:"time"`
}

func newHistogram(buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram buckets not increasing at %d: %v", i, buckets))
		}
	}
	return &Histogram{
		upper:     buckets,
		counts:    make([]atomic.Uint64, len(buckets)+1), // final slot is +Inf
		exemplars: make([]atomic.Pointer[Exemplar], len(buckets)+1),
	}
}

// bucketIndex returns the bucket v falls into.
func (h *Histogram) bucketIndex(v float64) int {
	// Buckets are few (≤ ~20); linear scan beats binary search.
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	return i
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
}

// ObserveExemplar records one value and, when traceID is non-empty and v is
// at or above the exemplar threshold, remembers (traceID, v, now) as the
// bucket's exemplar, replacing any earlier one. The exemplar shows up as a
// `# {trace_id="..."}` suffix on the bucket's line when a scraper
// negotiates the OpenMetrics exposition.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := h.bucketIndex(v)
	h.counts[i].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
	if traceID == "" || v < math.Float64frombits(h.exemplarMinBits.Load()) {
		return
	}
	h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v, Time: time.Now()})
}

// SetExemplarThreshold makes ObserveExemplar drop trace IDs for values
// below min, so only observations slow enough to be worth chasing occupy
// the per-bucket exemplar slots. The default threshold is 0 (keep every
// offered exemplar).
func (h *Histogram) SetExemplarThreshold(min float64) {
	h.exemplarMinBits.Store(math.Float64bits(min))
}

// exemplarAt returns bucket i's exemplar, or nil.
func (h *Histogram) exemplarAt(i int) *Exemplar {
	if i < 0 || i >= len(h.exemplars) {
		return nil
	}
	return h.exemplars[i].Load()
}

// Exemplars returns the currently retained exemplars, ordered by bucket.
func (h *Histogram) Exemplars() []Exemplar {
	out := make([]Exemplar, 0, len(h.exemplars))
	for i := range h.exemplars {
		if e := h.exemplars[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	return out
}

// FamilyExemplars returns the trace exemplars currently retained across
// every series of the named histogram family, in stable (sorted label set,
// then bucket) order. It returns nil when the family is unknown or not a
// histogram. The flight recorder uses this to resolve the latency
// histogram's exemplar trace IDs into explain reports at capture time.
func (r *Registry) FamilyExemplars(name string) []Exemplar {
	r.mu.Lock()
	fam, ok := r.families[name]
	var hists []*Histogram
	if ok && fam.kind == histogramKind {
		keys := make([]string, 0, len(fam.series))
		for k := range fam.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		hists = make([]*Histogram, 0, len(keys))
		for _, k := range keys {
			hists = append(hists, fam.series[k].hist)
		}
	}
	r.mu.Unlock()
	var out []Exemplar
	for _, h := range hists {
		out = append(out, h.Exemplars()...)
	}
	return out
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts by
// linear interpolation inside the bucket the quantile falls into, the same
// estimate Prometheus's histogram_quantile computes. Values in the +Inf
// bucket clamp to the highest finite bound. It returns 0 for an empty
// histogram. The estimate reads the counts atomically but not as one
// consistent snapshot — fine for monitoring, like scraping is.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]uint64, len(h.counts))
	total := uint64(0)
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return bucketQuantile(h.upper, counts, total, q)
}

// bucketQuantile interpolates the q-quantile of total observations spread
// over per-bucket (non-cumulative) counts with the given finite upper
// bounds (counts has one extra +Inf slot).
func bucketQuantile(upper []float64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i, c := range counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(upper) {
			// +Inf bucket: clamp to the highest finite bound.
			if len(upper) == 0 {
				return 0
			}
			return upper[len(upper)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = upper[i-1]
		}
		if c == 0 {
			return upper[i]
		}
		within := rank - float64(cum-c)
		return lo + (upper[i]-lo)*(within/float64(c))
	}
	return upper[len(upper)-1]
}

// ExpBuckets returns count log-spaced histogram bounds starting at start,
// each factor times the previous — the usual shape for latency histograms
// whose tail matters more than its absolute resolution.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic(fmt.Sprintf("obs: ExpBuckets(%v, %v, %d): need start > 0, factor > 1, count >= 1", start, factor, count))
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
