package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/httpapi"
	"repro/internal/loadreport"
	"repro/internal/obs"
)

// testServer serves the real API handler on a loopback listener.
func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(httpapi.New(httpapi.Options{
		Registry: obs.NewRegistry(),
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestClosedLoopReport(t *testing.T) {
	srv := testServer(t)
	out := filepath.Join(t.TempDir(), "report.json")
	err := run(context.Background(), &bytes.Buffer{}, []string{
		"-addr", srv.URL, "-mode", "closed", "-concurrency", "2",
		"-duration", "1s", "-cases", "2", "-corpus", "squeeze",
		"-out", out, "-max-error-rate", "0",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rep, err := loadreport.ReadFile(out)
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	if rep.Mode != "closed" || rep.Endpoint != "localize" {
		t.Fatalf("report shape = %s/%s", rep.Mode, rep.Endpoint)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests recorded")
	}
	if rep.Status["200"] != rep.Requests {
		t.Fatalf("status map %v does not account for all %d requests", rep.Status, rep.Requests)
	}
	if rep.ErrorRate != 0 {
		t.Fatalf("error rate %v on a healthy server", rep.ErrorRate)
	}
	if rep.Latency.P50MS <= 0 || rep.Latency.P99MS < rep.Latency.P50MS {
		t.Fatalf("implausible latency summary %+v", rep.Latency)
	}
	if rep.ThroughputRPS <= 0 {
		t.Fatalf("throughput %v", rep.ThroughputRPS)
	}
	if len(rep.Slowest) == 0 {
		t.Fatal("no slowest requests retained")
	}
	for _, s := range rep.Slowest {
		if len(s.TraceID) != 32 {
			t.Fatalf("slow request trace id %q is not 32 hex chars", s.TraceID)
		}
	}
}

func TestOpenLoopBatchWithRamp(t *testing.T) {
	srv := testServer(t)
	var buf bytes.Buffer
	err := run(context.Background(), &buf, []string{
		"-addr", strings.TrimPrefix(srv.URL, "http://"), // exercise host:port shorthand
		"-mode", "open", "-qps", "50", "-ramp", "200ms", "-concurrency", "8",
		"-duration", "1s", "-cases", "2", "-batch-items", "2",
		"-endpoint", "batch", "-corpus", "stream", "-attrs", "region:4,isp:3",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rep, err := loadreport.Read(&buf)
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	if rep.Mode != "open" || rep.Endpoint != "batch" || rep.TargetQPS != 50 {
		t.Fatalf("report shape %s/%s qps=%v", rep.Mode, rep.Endpoint, rep.TargetQPS)
	}
	if rep.Requests == 0 {
		t.Fatal("no requests recorded")
	}
	if rep.NetErrors != 0 {
		t.Fatalf("%d net errors against a live server (status %v)", rep.NetErrors, rep.Status)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "bursty"},
		{"-endpoint", "incidents"},
		{"-corpus", "netflix"},
		{"-mode", "open", "-qps", "0"},
		{"-corpus", "stream", "-attrs", "region"},
	} {
		if err := run(context.Background(), &bytes.Buffer{}, append(args, "-duration", "10ms")); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

func TestRenderSnapshotsDeterministic(t *testing.T) {
	a, err := renderSnapshots("stream", 7, 3, "region:4,isp:3")
	if err != nil {
		t.Fatal(err)
	}
	b, err := renderSnapshots("stream", 7, 3, "region:4,isp:3")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("snapshot %d differs across identical renders", i)
		}
	}
	if bytes.Equal(a[0], a[1]) {
		t.Fatal("distinct cases rendered identical snapshots")
	}
}

func TestRunHonorsContextCancel(t *testing.T) {
	srv := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, &bytes.Buffer{}, []string{
			"-addr", srv.URL, "-mode", "closed", "-concurrency", "1",
			"-duration", "1h", "-cases", "1",
		})
	}()
	time.Sleep(300 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop after context cancel")
	}
}

// TestCaptureOnFail pins the failed-gate capture path: when -max-error-rate
// trips, loadgen pulls a diagnostic bundle from the target's flight
// recorder and writes the archive locally before exiting non-zero.
func TestCaptureOnFail(t *testing.T) {
	rec := flight.New(flight.Config{Registry: obs.NewRegistry(), CPUProfile: time.Millisecond})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/localize", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	})
	mux.Handle("GET /debug/flight/{id}", rec.ArchiveHandler())
	mux.Handle("POST /debug/flight/capture", rec.CaptureHandler())
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	bundle := filepath.Join(t.TempDir(), "fail.tar.gz")
	err := run(context.Background(), &bytes.Buffer{}, []string{
		"-addr", srv.URL, "-mode", "closed", "-concurrency", "1",
		"-duration", "200ms", "-cases", "1",
		"-max-error-rate", "0", "-capture-on-fail", bundle,
	})
	if err == nil || !strings.Contains(err.Error(), "error rate") {
		t.Fatalf("gate did not trip: %v", err)
	}
	data, rerr := os.ReadFile(bundle)
	if rerr != nil {
		t.Fatalf("no bundle written: %v", rerr)
	}
	gz, gerr := gzip.NewReader(bytes.NewReader(data))
	if gerr != nil {
		t.Fatalf("bundle is not gzip: %v", gerr)
	}
	if _, cerr := io.Copy(io.Discard, gz); cerr != nil {
		t.Fatalf("bundle archive corrupt: %v", cerr)
	}
	if rec.Total() != 1 {
		t.Errorf("server captured %d bundles, want 1", rec.Total())
	}
	// The gate verdict travels as the capture reason.
	if reason := rec.Bundles()[0].Reason; !strings.Contains(reason, "loadgen") {
		t.Errorf("capture reason %q does not mention loadgen", reason)
	}
}

// TestCaptureOnFailStaysQuietOnPass checks a green run writes no bundle.
func TestCaptureOnFailStaysQuietOnPass(t *testing.T) {
	srv := testServer(t)
	bundle := filepath.Join(t.TempDir(), "unused.tar.gz")
	err := run(context.Background(), &bytes.Buffer{}, []string{
		"-addr", srv.URL, "-mode", "closed", "-concurrency", "1",
		"-duration", "200ms", "-cases", "1",
		"-max-error-rate", "0", "-capture-on-fail", bundle,
	})
	if err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	if _, err := os.Stat(bundle); err == nil {
		t.Error("bundle written although the gate never tripped")
	}
}

// TestTicksReplayContinuous drives the -ticks discipline end to end against
// a real handler mounted with the continuous endpoints.
func TestTicksReplayContinuous(t *testing.T) {
	srv := httptest.NewServer(httpapi.New(httpapi.Options{
		Registry:   obs.NewRegistry(),
		Continuous: true,
	}))
	t.Cleanup(srv.Close)
	out := filepath.Join(t.TempDir(), "ticks.json")
	err := run(context.Background(), &bytes.Buffer{}, []string{
		"-addr", srv.URL, "-ticks", "8", "-touch", "0.1",
		"-fail-every", "4", "-fail-for", "2",
		"-attrs", "region:6,isp:4,proto:3", "-seed", "7",
		"-out", out, "-max-error-rate", "0",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	rep, err := loadreport.ReadFile(out)
	if err != nil {
		t.Fatalf("read report: %v", err)
	}
	if rep.Mode != "ticks" || rep.Endpoint != "observe/delta" {
		t.Fatalf("report shape = %s/%s", rep.Mode, rep.Endpoint)
	}
	if rep.Requests != 8 {
		t.Fatalf("requests %d, want 8 ticks", rep.Requests)
	}
	if rep.Status["200"] != 8 {
		t.Fatalf("status map %v", rep.Status)
	}
	if rep.ErrorRate != 0 {
		t.Fatalf("error rate %v", rep.ErrorRate)
	}
}

// TestTicksAgainstPlainServerFails: without -continuous the baseline install
// 404s and the replay reports a hard error instead of limping along.
func TestTicksAgainstPlainServerFails(t *testing.T) {
	srv := testServer(t)
	err := run(context.Background(), &bytes.Buffer{}, []string{
		"-addr", srv.URL, "-ticks", "3",
	})
	if err == nil {
		t.Fatal("replay against a non-continuous server succeeded")
	}
	if !strings.Contains(err.Error(), "-continuous") {
		t.Fatalf("error %q does not point at -continuous", err)
	}
}
