package obs

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestPrometheusExpositionGolden pins the exact exposition text: families
// sorted by name, series by label set, histograms cumulative with +Inf,
// label values escaped.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("api_requests_total", "API requests served.", "method", "GET", "class", "2xx").Add(12)
	r.Counter("api_requests_total", "ignored on re-register", "method", "POST", "class", "5xx").Inc()
	r.Gauge("inflight", "In-flight requests.").Set(3)
	h := r.Histogram("latency_seconds", "Request latency.", []float64{0.1, 0.5, 2.5})
	h.Observe(0.05)
	h.Observe(0.3)
	h.Observe(10)
	r.Gauge("weird_label", "", "path", `a\b"c`+"\n").Set(1)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP api_requests_total API requests served.
# TYPE api_requests_total counter
api_requests_total{class="2xx",method="GET"} 12
api_requests_total{class="5xx",method="POST"} 1
# HELP inflight In-flight requests.
# TYPE inflight gauge
inflight 3
# HELP latency_seconds Request latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 1
latency_seconds_bucket{le="0.5"} 2
latency_seconds_bucket{le="2.5"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 10.35
latency_seconds_count 3
# TYPE weird_label gauge
weird_label{path="a\\b\"c\n"} 1
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestOpenMetricsExpositionGolden pins the OpenMetrics rendering: counter
// families drop _total on HELP/TYPE while samples keep it, and the
// document ends with # EOF.
func TestOpenMetricsExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("api_requests_total", "API requests served.", "method", "GET").Add(12)
	r.Gauge("inflight", "In-flight requests.").Set(3)
	h := r.Histogram("latency_seconds", "Request latency.", []float64{0.1, 0.5})
	h.Observe(0.05)
	h.Observe(0.3)

	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP api_requests API requests served.
# TYPE api_requests counter
api_requests_total{method="GET"} 12
# HELP inflight In-flight requests.
# TYPE inflight gauge
inflight 3
# HELP latency_seconds Request latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 1
latency_seconds_bucket{le="0.5"} 2
latency_seconds_bucket{le="+Inf"} 2
latency_seconds_sum 0.35
latency_seconds_count 2
# EOF
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestAcceptsOpenMetrics(t *testing.T) {
	for accept, want := range map[string]bool{
		"":                         false,
		"text/plain;version=0.0.4": false,
		"application/openmetrics-text;version=1.0.0;q=0.5,text/plain;version=0.0.4;q=0.3": true,
		"application/openmetrics-text":                          true,
		"application/openmetrics-text;q=0,text/plain":           false,
		"text/html,application/openmetrics-text; version=1.0.0": true,
	} {
		if got := acceptsOpenMetrics(accept); got != want {
			t.Errorf("acceptsOpenMetrics(%q) = %v, want %v", accept, got, want)
		}
	}
}

func TestHandlers(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "").Inc()

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	body, _ := io.ReadAll(rec.Result().Body)
	if !strings.Contains(string(body), "hits_total 1") {
		t.Errorf("metrics body = %s", body)
	}
	if strings.Contains(string(body), "# EOF") {
		t.Errorf("plain exposition carries the OpenMetrics terminator:\n%s", body)
	}

	// A scraper negotiating OpenMetrics gets that format instead.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text;version=1.0.0,text/plain;q=0.5")
	r.Handler().ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text") {
		t.Errorf("negotiated content type = %q", ct)
	}
	om, _ := io.ReadAll(rec.Result().Body)
	if !strings.Contains(string(om), "# TYPE hits counter") || !strings.Contains(string(om), "hits_total 1") {
		t.Errorf("OpenMetrics body = %s", om)
	}
	if !strings.HasSuffix(string(om), "# EOF\n") {
		t.Errorf("OpenMetrics body lacks # EOF:\n%s", om)
	}
}
