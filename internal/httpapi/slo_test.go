package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// localizeN drives n successful CSV localizations through the server.
func localizeN(t *testing.T, url string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		resp, err := http.Post(url+"/v1/localize?k=2", "text/csv", strings.NewReader(sampleCSV))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("localize status = %d", resp.StatusCode)
		}
	}
}

// TestDebugSLOReflectsTraffic is the acceptance path: drive traffic, then
// check the rolling windows report it with plausible latency quantiles.
func TestDebugSLOReflectsTraffic(t *testing.T) {
	srv, _ := newObsServer(t)
	localizeN(t, srv.URL, 5)

	status, body := get(t, srv.URL+"/debug/slo")
	if status != http.StatusOK {
		t.Fatalf("/debug/slo status = %d", status)
	}
	var rep SLOReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/debug/slo not JSON: %v\n%s", err, body)
	}
	if rep.UptimeSeconds <= 0 {
		t.Fatalf("uptime %v", rep.UptimeSeconds)
	}
	if rep.BatchCapacity <= 0 {
		t.Fatalf("batch capacity %d", rep.BatchCapacity)
	}
	for _, window := range []string{"1m", "5m"} {
		per, ok := rep.Windows[window]
		if !ok {
			t.Fatalf("window %q missing (have %v)", window, rep.Windows)
		}
		v, ok := per["POST /v1/localize"]
		if !ok {
			t.Fatalf("window %q lacks the localize endpoint", window)
		}
		if v.Requests != 5 {
			t.Fatalf("window %q requests = %v, want 5", window, v.Requests)
		}
		if v.P50MS <= 0 || v.P99MS < v.P50MS {
			t.Fatalf("window %q implausible latency %+v", window, v)
		}
		if v.DegradedRate != 0 || v.ErrorRate != 0 {
			t.Fatalf("window %q unexpected failure rates %+v", window, v)
		}
	}
	// Untracked endpoints must not grow the map.
	if _, ok := rep.Windows["1m"]["GET /healthz"]; ok {
		t.Fatal("healthz leaked into the SLO windows")
	}
}

// getOpenMetrics scrapes url negotiating the OpenMetrics exposition — the
// only text format that may legally carry exemplars.
func getOpenMetrics(t *testing.T, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5")
	resp, err := http.DefaultClient.Do(req)
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

// TestMetricsExemplarResolvesToRun checks the cross-linking contract: a
// trace exemplar scraped from /metrics (OpenMetrics negotiation) names a
// run whose explain report is fetchable at /debug/runs/{trace-id}. The
// classic 0.0.4 exposition must stay exemplar-free, since its grammar has
// no exemplar syntax and real Prometheus parsers would fail the scrape.
func TestMetricsExemplarResolvesToRun(t *testing.T) {
	srv, _ := newObsServer(t)
	localizeN(t, srv.URL, 1)

	_, plain := get(t, srv.URL+"/metrics")
	if strings.Contains(plain, "trace_id=") {
		t.Fatalf("exemplar leaked into the plain 0.0.4 exposition:\n%s", plain)
	}

	_, metrics := getOpenMetrics(t, srv.URL+"/metrics")
	if !strings.HasSuffix(metrics, "# EOF\n") {
		t.Fatalf("OpenMetrics exposition lacks # EOF:\n%s", metrics)
	}
	// Pin the localize route: other instrumented requests (like the plain
	// /metrics scrape above) carry exemplar traces that never started a run.
	re := regexp.MustCompile(`http_request_duration_seconds_bucket\{[^}]*route="POST /v1/localize"[^}]*\} \d+ # \{trace_id="([0-9a-f]{32})"\}`)
	m := re.FindStringSubmatch(metrics)
	if m == nil {
		t.Fatalf("no trace exemplar in the latency exposition:\n%s", metrics)
	}
	status, body := get(t, srv.URL+"/debug/runs/"+m[1])
	if status != http.StatusOK {
		t.Fatalf("/debug/runs/%s status = %d: %s", m[1], status, body)
	}
	if !strings.Contains(body, m[1]) {
		t.Fatalf("run report does not echo trace id %s", m[1])
	}
}

// TestExemplarThresholdSuppressesFastRequests: with a threshold far above
// any realistic request, no exemplar may appear.
func TestExemplarThresholdSuppressesFastRequests(t *testing.T) {
	reg := obs.NewRegistry()
	srv := newOptServer(t, Options{Registry: reg, ExemplarThreshold: 3600})
	localizeN(t, srv.URL, 1)
	_, metrics := getOpenMetrics(t, srv.URL+"/metrics")
	if strings.Contains(metrics, "trace_id=") {
		t.Fatalf("exemplar recorded below threshold:\n%s", metrics)
	}
}

func TestLogSamplerWindow(t *testing.T) {
	reg := obs.NewRegistry()
	s := newLogSampler(reg, 2)
	now := time.Unix(100, 0)
	allowed := 0
	for i := 0; i < 5; i++ {
		if s.allow(now) {
			allowed++
		}
	}
	if allowed != 2 {
		t.Fatalf("allowed %d lines at 2/s, want 2", allowed)
	}
	if got := reg.Counter("rapminer_logs_suppressed_total", "").Value(); got != 3 {
		t.Fatalf("suppressed counter = %v, want 3", got)
	}
	// A new second refills the window.
	if !s.allow(now.Add(time.Second)) {
		t.Fatal("new second did not refill the sampler")
	}
	// Unlimited sampler never suppresses.
	u := newLogSampler(obs.NewRegistry(), 0)
	for i := 0; i < 100; i++ {
		if !u.allow(now) {
			t.Fatal("unlimited sampler suppressed a line")
		}
	}
}

// TestUptimeAndBuildInfoExposed: /metrics carries the process identity
// block registered by the handler.
func TestUptimeAndBuildInfoExposed(t *testing.T) {
	srv, _ := newObsServer(t)
	_, metrics := get(t, srv.URL+"/metrics")
	for _, want := range []string{"rapminer_build_info{", "process_start_time_seconds", "process_uptime_seconds"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics lacks %s:\n%s", want, metrics)
		}
	}
}

// newOptServer builds a server with explicit options.
func newOptServer(t *testing.T, o Options) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(o))
	t.Cleanup(srv.Close)
	return srv
}

// TestObservabilityUnderConcurrentLoad hammers every observability surface
// while localizations run, so the race detector can certify the whole
// telemetry path (histograms, exemplars, rolling windows, span ring,
// sampler) under contention.
func TestObservabilityUnderConcurrentLoad(t *testing.T) {
	reg := obs.NewRegistry()
	srv := newOptServer(t, Options{Registry: reg, LogMaxPerSec: 5, ExemplarThreshold: 0})

	const (
		loaders  = 4
		scrapers = 4
		rounds   = 8
	)
	var wg sync.WaitGroup
	errCh := make(chan error, loaders+scrapers)
	for i := 0; i < loaders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := http.Post(srv.URL+"/v1/localize?k=2", "text/csv", strings.NewReader(sampleCSV))
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("localize status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	pages := []string{"/metrics", "/debug/spans", "/debug/slo", "/debug/runs"}
	for i := 0; i < scrapers; i++ {
		page := pages[i%len(pages)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := http.Get(srv.URL + page)
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("%s status %d", page, resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// The run must have left a coherent SLO view behind.
	_, body := get(t, srv.URL+"/debug/slo")
	var rep SLOReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if got := rep.Windows["1m"]["POST /v1/localize"].Requests; got != loaders*rounds {
		t.Fatalf("SLO window saw %v localizations, want %d", got, loaders*rounds)
	}
}

// TestSLOWindowsSeeDeltaRequests: the continuous write path is windowed
// like /v1/localize, so the flight recorder's latency and error rules see
// it.
func TestSLOWindowsSeeDeltaRequests(t *testing.T) {
	srv := newContinuousServer(t)
	if resp, _ := postContinuous(t, srv, "/v1/observe/snapshot", continuousSnapshotJSON(t, 0)); resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	if resp, _ := postContinuous(t, srv, "/v1/observe/delta", failDelta(0)); resp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d", resp.StatusCode)
	}
	var rep SLOReport
	getJSON(t, srv.URL+"/debug/slo", &rep)
	for _, route := range []string{"POST /v1/observe/snapshot", "POST /v1/observe/delta"} {
		v, ok := rep.Windows["1m"][route]
		if !ok {
			t.Fatalf("1m window lacks %s (have %v)", route, rep.Windows["1m"])
		}
		if v.Requests != 1 || v.ErrorRate != 0 {
			t.Fatalf("1m window %s = %+v, want 1 request and no errors", route, v)
		}
	}
}
