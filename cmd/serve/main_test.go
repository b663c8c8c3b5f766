package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe strings.Builder for capturing run output
// while the server goroutine writes to it.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestRunFlagParsing(t *testing.T) {
	ctx := context.Background()
	var out syncBuffer
	if err := run(ctx, &out, []string{"-no-such-flag"}); err == nil {
		t.Error("unknown flag accepted")
	}
	if err := run(ctx, &out, []string{"-addr", "not-an-address"}); err == nil {
		t.Error("unlistenable address accepted")
	}
}

// startServer runs the server on an ephemeral port and returns its base
// URL plus a cancel to trigger graceful shutdown and a channel with run's
// result.
func startServer(t *testing.T, args ...string) (string, context.CancelFunc, <-chan error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	errCh := make(chan error, 1)
	go func() { errCh <- run(ctx, &out, append([]string{"-addr", "127.0.0.1:0"}, args...)) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := out.String(); strings.Contains(s, "listening on ") {
			addr := strings.TrimSpace(strings.TrimPrefix(s, "listening on "))
			return "http://" + addr, cancel, errCh
		}
		select {
		case err := <-errCh:
			cancel()
			t.Fatalf("server exited before listening: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatal("server never reported its address")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRunServesAndShutsDownGracefully(t *testing.T) {
	base, cancel, errCh := startServer(t)
	defer cancel()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz = %d %s", resp.StatusCode, body)
	}

	// The observability endpoints are mounted.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"rapminer_cuboids_visited",
		"http_request_duration_seconds",
		"pipeline_incidents_opened_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// The registry is served at /metrics only.
	resp, err = http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatalf("vars: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/vars = %d, want 404", resp.StatusCode)
	}

	// Interrupt → graceful exit with nil error.
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Errorf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("server did not shut down")
	}
}

func TestRunPprofFlag(t *testing.T) {
	for _, tt := range []struct {
		args       []string
		wantStatus int
	}{
		{[]string{"-pprof"}, http.StatusOK},
		{nil, http.StatusNotFound},
	} {
		t.Run(fmt.Sprint(tt.args), func(t *testing.T) {
			base, cancel, errCh := startServer(t, tt.args...)
			defer cancel()
			resp, err := http.Get(base + "/debug/pprof/cmdline")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tt.wantStatus {
				t.Errorf("pprof status = %d, want %d", resp.StatusCode, tt.wantStatus)
			}
			cancel()
			<-errCh
		})
	}
}

// TestRunFlightFlags boots the server with flight flags, captures a bundle
// over HTTP, and checks the spill directory and /readyz probe.
func TestRunFlightFlags(t *testing.T) {
	spill := t.TempDir()
	base, cancel, errCh := startServer(t,
		"-flight-rules", "p99-latency=500ms,queue-saturation=0.9",
		"-flight-cpu-profile", "20ms",
		"-flight-spill-dir", spill,
	)
	defer cancel()

	// Readiness probe: up and ready.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz = %d, want 200", resp.StatusCode)
	}

	// Manual capture via the HTTP surface the rapmctl subcommands drive.
	resp, err = http.Post(base+"/debug/flight/capture?reason=smoke", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var info struct {
		ID      string `json:"id"`
		Spilled string `json:"spilled"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || info.ID == "" {
		t.Fatalf("capture: HTTP %d, %+v", resp.StatusCode, info)
	}
	if _, err := os.Stat(filepath.Join(spill, info.ID+".tar.gz")); err != nil {
		t.Errorf("spilled bundle missing: %v", err)
	}

	// The archive downloads.
	resp, err = http.Get(base + "/debug/flight/" + info.ID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("archive fetch = %d", resp.StatusCode)
	}

	cancel()
	<-errCh
}

// TestRunBadFlightRules pins flag validation: a bogus rule string fails
// startup instead of silently arming nothing.
func TestRunBadFlightRules(t *testing.T) {
	var out syncBuffer
	if err := run(context.Background(), &out, []string{"-flight-rules", "bogus=1"}); err == nil {
		t.Error("bogus flight rules accepted")
	}
}
