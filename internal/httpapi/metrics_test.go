package httpapi

import (
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestMain discards the request log stream: these tests drive hundreds of
// requests and the per-request lines drown real failures.
func TestMain(m *testing.M) {
	obs.ConfigureLogging(io.Discard, slog.LevelInfo, false)
	os.Exit(m.Run())
}

// newObsServer builds a server on a fresh registry so metric assertions
// are not polluted by other tests sharing the default registry.
func newObsServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	srv := httptest.NewServer(New(Options{Registry: reg}))
	t.Cleanup(srv.Close)
	return srv, reg
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsEndToEnd is the acceptance path: drive real traffic through
// the service, then scrape /metrics and verify the Prometheus exposition
// carries the miner, HTTP, and pipeline families.
func TestMetricsEndToEnd(t *testing.T) {
	srv, _ := newObsServer(t)

	// One successful localization (publishes rapminer diagnostics), one 4xx.
	resp, err := http.Post(srv.URL+"/v1/localize?k=2", "text/csv", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("localize status = %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/localize?method=bogus", "text/csv", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	status, body := get(t, srv.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics status = %d", status)
	}

	// The acceptance criteria's three families.
	for _, want := range []string{
		"rapminer_cuboids_visited",
		`http_request_duration_seconds_bucket{route="POST /v1/localize",le="0.005"}`,
		"pipeline_incidents_opened_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
	// The sample snapshot has 2 attributes: the full lattice is 3 cuboids
	// and the run visits at least one.
	if !strings.Contains(body, "rapminer_cuboids_total 3") {
		t.Errorf("cuboids_total not exported from the run:\n%s", body)
	}
	if strings.Contains(body, "rapminer_cuboids_visited 0\n") {
		t.Error("cuboids_visited still zero after a localization run")
	}
	if !strings.Contains(body, "rapminer_runs_total 1") {
		t.Errorf("runs_total != 1:\n%s", body)
	}
	// Request counting by status class, with route labels from the mux
	// pattern, not the raw path.
	if !strings.Contains(body, `http_requests_total{class="2xx",method="POST",route="POST /v1/localize"} 1`) {
		t.Errorf("2xx request not counted:\n%s", body)
	}
	if !strings.Contains(body, `http_requests_total{class="4xx",method="POST",route="POST /v1/localize"} 1`) {
		t.Errorf("4xx request not counted:\n%s", body)
	}
	// TYPE lines make it valid exposition for a Prometheus scraper.
	for _, want := range []string{
		"# TYPE http_request_duration_seconds histogram",
		"# TYPE rapminer_cuboids_visited gauge",
		"# TYPE pipeline_incidents_opened_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsPipelineIncidentCounters drives the observe endpoint into an
// incident and verifies the pipeline counters move.
func TestMetricsPipelineIncidentCounters(t *testing.T) {
	srv, reg := newObsServer(t)

	quiet := `Location,actual,forecast
L1,100,0
L2,100,0
`
	anomalous := `Location,actual,forecast
L1,10,0
L2,100,0
`
	post := func(body string) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/observe", "text/csv", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			out, _ := io.ReadAll(resp.Body)
			t.Fatalf("observe status = %d: %s", resp.StatusCode, out)
		}
	}
	// Teach the tracker a baseline (MinHistory 5), then break it long
	// enough to pass the 2-tick debounce.
	for i := 0; i < 8; i++ {
		post(quiet)
	}
	for i := 0; i < 4; i++ {
		post(anomalous)
	}

	if got := reg.Counter("pipeline_incidents_opened_total", "").Value(); got != 1 {
		t.Errorf("pipeline_incidents_opened_total = %v, want 1", got)
	}
	_, body := get(t, srv.URL+"/metrics")
	if !strings.Contains(body, "pipeline_incidents_opened_total 1") {
		t.Errorf("/metrics does not report the opened incident:\n%s", body)
	}
	if !strings.Contains(body, `pipeline_events_total{kind="opened"} 1`) {
		t.Errorf("event-kind counter missing:\n%s", body)
	}
}

// TestDebugVarsNotMounted checks the registry is served only at /metrics:
// /debug/vars answers 404.
func TestDebugVarsNotMounted(t *testing.T) {
	srv, _ := newObsServer(t)
	if status, _ := get(t, srv.URL+"/debug/vars"); status != http.StatusNotFound {
		t.Fatalf("/debug/vars status = %d, want 404", status)
	}
	if _, body := get(t, srv.URL+"/metrics"); !strings.Contains(body, "pipeline_incidents_opened_total") {
		t.Errorf("/metrics missing pipeline metric:\n%s", body)
	}
}

func TestDebugSpansEndpoint(t *testing.T) {
	srv, _ := newObsServer(t)
	// Localization opens an httpapi.localize span on the default ring.
	resp, err := http.Post(srv.URL+"/v1/localize", "text/csv", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	status, body := get(t, srv.URL+"/debug/spans")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if !strings.Contains(body, "httpapi.localize") {
		t.Errorf("span ring missing localize span:\n%s", body)
	}
}

func TestInflightGaugeReturnsToZero(t *testing.T) {
	srv, reg := newObsServer(t)
	for i := 0; i < 3; i++ {
		status, _ := get(t, srv.URL+"/healthz")
		if status != http.StatusOK {
			t.Fatalf("healthz = %d", status)
		}
	}
	if got := reg.Gauge("http_inflight_requests", "").Value(); got != 0 {
		t.Errorf("inflight = %v after requests drained", got)
	}
}

func TestUnmatchedRouteCountsAsNone(t *testing.T) {
	srv, reg := newObsServer(t)
	status, _ := get(t, srv.URL+"/no/such/route")
	if status != http.StatusNotFound {
		t.Fatalf("status = %d", status)
	}
	if got := reg.Counter("http_requests_total", "",
		"method", "GET", "route", "none", "class", "4xx").Value(); got != 1 {
		t.Errorf("unmatched-route counter = %v, want 1", got)
	}
}
