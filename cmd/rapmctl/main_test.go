package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/httpapi"
	"repro/internal/rapminer/explain"
)

// newService starts the real httpapi handler and pushes one localization
// through it so /debug/runs has a report to serve.
func newService(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	srv := httptest.NewServer(httpapi.New(httpapi.Options{}))
	t.Cleanup(srv.Close)

	const csv = `Location,Website,actual,forecast
L1,Site1,40,100
L1,Site2,100,100
L2,Site1,38,95
L2,Site2,101,100
`
	resp, err := http.Post(srv.URL+"/v1/localize", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed localize status = %d", resp.StatusCode)
	}
	var out struct {
		TraceID string `json:"trace_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return srv, out.TraceID
}

func TestRunsSubcommand(t *testing.T) {
	srv, traceID := newService(t)
	var b strings.Builder
	if err := run(&b, []string{"runs", "-addr", srv.URL}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, traceID) {
		t.Errorf("runs output missing trace ID %s:\n%s", traceID, out)
	}
	if !strings.Contains(out, "httpapi") {
		t.Errorf("runs output missing source:\n%s", out)
	}
}

func TestExplainSubcommand(t *testing.T) {
	srv, traceID := newService(t)

	// Explicit trace ID.
	var b strings.Builder
	if err := run(&b, []string{"explain", "-addr", srv.URL, traceID}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"run " + traceID,
		"stage 1 — attribute deletion",
		"stage 2 — AC-guided search",
		"RAPScore",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}

	// No trace ID: explains the most recent run.
	b.Reset()
	if err := run(&b, []string{"explain", "-addr", srv.URL}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "run "+traceID) {
		t.Errorf("explain without ID did not pick the latest run:\n%s", b.String())
	}
}

func TestExplainJSON(t *testing.T) {
	srv, traceID := newService(t)
	var b strings.Builder
	if err := run(&b, []string{"explain", "-addr", srv.URL, "-json", traceID}); err != nil {
		t.Fatal(err)
	}
	var report explain.Report
	if err := json.Unmarshal([]byte(b.String()), &report); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, b.String())
	}
	if report.TraceID != traceID || len(report.Candidates) == 0 {
		t.Errorf("-json report = %+v", report)
	}
}

func TestAddrShorthand(t *testing.T) {
	srv, traceID := newService(t)
	hostPort := strings.TrimPrefix(srv.URL, "http://")
	var b strings.Builder
	if err := run(&b, []string{"runs", "-addr", hostPort}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), traceID) {
		t.Errorf("host:port -addr shorthand failed:\n%s", b.String())
	}
}

func TestErrors(t *testing.T) {
	srv, _ := newService(t)

	var b strings.Builder
	if err := run(&b, nil); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Errorf("no subcommand error = %v", err)
	}
	if err := run(&b, []string{"bogus"}); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
		t.Errorf("unknown subcommand error = %v", err)
	}

	// An unknown trace ID surfaces the service's JSON error message.
	err := run(&b, []string{"explain", "-addr", srv.URL, "ffffffffffffffffffffffffffffffff"})
	if err == nil || !strings.Contains(err.Error(), "no run with trace ID") {
		t.Errorf("unknown trace error = %v", err)
	}

	// help prints usage and succeeds.
	b.Reset()
	if err := run(&b, []string{"help"}); err != nil || !strings.Contains(b.String(), "rapmctl runs") {
		t.Errorf("help = %v, output %q", err, b.String())
	}
}
