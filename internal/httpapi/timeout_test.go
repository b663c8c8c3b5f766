package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kpi"
	"repro/internal/localize"
	"repro/internal/methods"
	"repro/internal/obs"
	"repro/internal/rapminer"
)

// stallLocalizer is a localizer that parks until the request
// deadline expires, then returns a degraded best-so-far result — the
// behavior the miner exhibits on a too-tight deadline, without depending on
// machine speed.
type stallLocalizer struct{}

func (stallLocalizer) Name() string { return "stall" }

func (stallLocalizer) Localize(s *kpi.Snapshot, k int) (localize.Result, error) {
	return stallLocalizer{}.LocalizeContext(context.Background(), s, k)
}

func (stallLocalizer) LocalizeContext(ctx context.Context, s *kpi.Snapshot, k int) (localize.Result, error) {
	select {
	case <-ctx.Done():
	case <-time.After(10 * time.Second):
		return localize.Result{}, nil
	}
	return localize.Result{
		Patterns:       []localize.ScoredPattern{{Combo: kpi.NewRoot(s.Schema.NumAttributes()), Score: 1}},
		Degraded:       true,
		DegradedReason: localize.DegradedDeadline,
	}, nil
}

// panickyLocalizer panics unconditionally.
type panickyLocalizer struct{}

func (panickyLocalizer) Name() string { return "panicky" }

func (r panickyLocalizer) Localize(s *kpi.Snapshot, k int) (localize.Result, error) {
	return r.LocalizeContext(context.Background(), s, k)
}

func (panickyLocalizer) LocalizeContext(_ context.Context, s *kpi.Snapshot, k int) (localize.Result, error) {
	panic("poisoned method")
}

// withTestMethod registers a temporary localization method for the duration
// of the test, in front of the method table.
func withTestMethod(t *testing.T, name string, l localize.Localizer) {
	t.Helper()
	if _, exists := lookupMethod(name); exists {
		t.Fatalf("method %q already registered", name)
	}
	prev := lookupMethod
	lookupMethod = func(key string) (methods.Method, bool) {
		if key == name {
			return methods.Method{Key: name, Label: l.Name(),
				New: func(rapminer.Config) (localize.Localizer, error) { return l, nil }}, true
		}
		return prev(key)
	}
	t.Cleanup(func() { lookupMethod = prev })
}

// TestRequestTimeoutAnswers504WithPartialResult pins the deadline contract
// of POST /v1/localize: an expired RequestTimeout answers 504 whose body
// still carries the degraded best-so-far result, and — unlike the batch
// queue's retryable 503 — no Retry-After header, because retrying under the
// same deadline would degrade the same way.
func TestRequestTimeoutAnswers504WithPartialResult(t *testing.T) {
	withTestMethod(t, "stall", stallLocalizer{})
	srv := httptest.NewServer(New(Options{RequestTimeout: 30 * time.Millisecond}))
	t.Cleanup(srv.Close)

	resp, err := http.Post(srv.URL+"/v1/localize?method=stall", "text/csv", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want %d", resp.StatusCode, http.StatusGatewayTimeout)
	}
	if got := resp.Header.Get("Retry-After"); got != "" {
		t.Fatalf("Retry-After = %q on a deadline 504, want absent", got)
	}
	var out localizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.DegradedReason != localize.DegradedDeadline {
		t.Fatalf("degraded=%v reason=%q, want true/%q", out.Degraded, out.DegradedReason, localize.DegradedDeadline)
	}
	if len(out.Patterns) == 0 {
		t.Fatal("504 body carries no best-so-far patterns")
	}
}

// TestRequestTimeoutLeavesFastRunsAlone checks a run finishing inside the
// deadline still answers 200 with no degraded marker.
func TestRequestTimeoutLeavesFastRunsAlone(t *testing.T) {
	srv := httptest.NewServer(New(Options{RequestTimeout: 10 * time.Second}))
	t.Cleanup(srv.Close)
	resp, out := postLocalize(t, srv, "/v1/localize?k=2", "text/csv", sampleCSV)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Degraded || out.DegradedReason != "" {
		t.Fatalf("fast run reported degraded: %+v", out)
	}
	if len(out.Patterns) == 0 {
		t.Fatal("no patterns")
	}
}

// TestPanickingMethodAnswers500 checks a panicking localizer is converted
// into the request's 500 — and the server keeps serving afterwards.
func TestPanickingMethodAnswers500(t *testing.T) {
	withTestMethod(t, "panicky", panickyLocalizer{})
	srv := newServer(t)

	resp, err := http.Post(srv.URL+"/v1/localize?method=panicky", "text/csv", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want %d", resp.StatusCode, http.StatusInternalServerError)
	}

	// The process survived; a healthy request still works.
	resp2, out := postLocalize(t, srv, "/v1/localize?k=2", "text/csv", sampleCSV)
	if resp2.StatusCode != http.StatusOK || len(out.Patterns) == 0 {
		t.Fatalf("healthy request after panic: status %d, %+v", resp2.StatusCode, out)
	}
}

// TestBatchRequestTimeoutAnswers504 pins the batch variant: one stalled item
// under an expired deadline turns the whole reply into a 504 (no
// Retry-After) whose items carry their degraded partial results.
func TestBatchRequestTimeoutAnswers504(t *testing.T) {
	withTestMethod(t, "stall", stallLocalizer{})
	srv := httptest.NewServer(New(Options{RequestTimeout: 30 * time.Millisecond}))
	t.Cleanup(srv.Close)

	snap, err := kpi.ReadCSV(strings.NewReader(sampleCSV), nil)
	if err != nil {
		t.Fatal(err)
	}
	var doc strings.Builder
	if err := kpi.WriteJSON(&doc, snap); err != nil {
		t.Fatal(err)
	}
	body := `{"snapshots":[` + doc.String() + `]}`

	resp, err := http.Post(srv.URL+"/v1/localize/batch?method=stall", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want %d", resp.StatusCode, http.StatusGatewayTimeout)
	}
	if got := resp.Header.Get("Retry-After"); got != "" {
		t.Fatalf("Retry-After = %q on a deadline 504, want absent", got)
	}
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 1 {
		t.Fatalf("%d items, want 1", len(out.Items))
	}
	item := out.Items[0]
	if item.Error != "" {
		t.Fatalf("item errored instead of degrading: %q", item.Error)
	}
	if !item.Degraded || len(item.Patterns) == 0 {
		t.Fatalf("item = %+v, want degraded with best-so-far patterns", item)
	}
}

// slowBody hands out a request body a few bytes at a time, pausing before
// each read.
type slowBody struct {
	data  []byte
	chunk int
	pause time.Duration
}

func (b *slowBody) Read(p []byte) (int, error) {
	if len(b.data) == 0 {
		return 0, io.EOF
	}
	time.Sleep(b.pause)
	n := copy(p[:min(len(p), b.chunk)], b.data)
	b.data = b.data[n:]
	return n, nil
}

// deadlineProbe is a localizer that reports the state of
// its context when called, then answers like stallLocalizer on an expired
// one and with the root pattern otherwise.
type deadlineProbe struct{ seen chan error }

func (p deadlineProbe) Name() string { return "probe" }

func (p deadlineProbe) Localize(s *kpi.Snapshot, k int) (localize.Result, error) {
	return p.LocalizeContext(context.Background(), s, k)
}

func (p deadlineProbe) LocalizeContext(ctx context.Context, s *kpi.Snapshot, k int) (localize.Result, error) {
	p.seen <- ctx.Err()
	if ctx.Err() != nil {
		return stallLocalizer{}.LocalizeContext(ctx, s, k)
	}
	return localize.Result{Patterns: []localize.ScoredPattern{{Combo: kpi.NewRoot(s.Schema.NumAttributes()), Score: 1}}}, nil
}

// TestRequestTimeoutCoversBodyRead pins where the per-request deadline
// starts: when the handler starts, so a body that takes longer to arrive
// than RequestTimeout leaves the localizer an expired context and the
// request answers 504 with the best-so-far result, while the same body
// arriving within the deadline answers 200.
func TestRequestTimeoutCoversBodyRead(t *testing.T) {
	probe := deadlineProbe{seen: make(chan error, 1)}
	withTestMethod(t, "probe", probe)
	doc := continuousSnapshotJSON(t, 0.5)
	for _, tt := range []struct {
		timeout, pause time.Duration
		code           int
		ctxErr         error
	}{
		{50 * time.Millisecond, 30 * time.Millisecond, http.StatusGatewayTimeout, context.DeadlineExceeded},
		{10 * time.Second, time.Millisecond, http.StatusOK, nil},
	} {
		srv := httptest.NewServer(New(Options{RequestTimeout: tt.timeout}))
		body := &slowBody{data: []byte(doc), chunk: len(doc)/4 + 1, pause: tt.pause}
		resp, err := http.Post(srv.URL+"/v1/localize?method=probe", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		srv.Close()
		if resp.StatusCode != tt.code {
			t.Errorf("timeout %v, body over %v: status %d, want %d", tt.timeout, 4*tt.pause, resp.StatusCode, tt.code)
		}
		if got := <-probe.seen; got != tt.ctxErr {
			t.Errorf("timeout %v, body over %v: localizer saw %v, want %v", tt.timeout, 4*tt.pause, got, tt.ctxErr)
		}
	}
}

// TestBatchRequestTimeoutCoversBodyRead pins the batch route to the deadline
// start of /v1/localize: the timeout runs from the handler's start, so a
// batch body that trickles in slower than it answers 504 and one that
// arrives within it answers 200.
func TestBatchRequestTimeoutCoversBodyRead(t *testing.T) {
	probe := deadlineProbe{seen: make(chan error, 1)}
	withTestMethod(t, "probe", probe)
	doc := `{"snapshots":[` + continuousSnapshotJSON(t, 0.5) + `]}`
	for _, tt := range []struct {
		timeout, pause time.Duration
		code           int
	}{
		{50 * time.Millisecond, 30 * time.Millisecond, http.StatusGatewayTimeout},
		{10 * time.Second, time.Millisecond, http.StatusOK},
	} {
		srv := httptest.NewServer(New(Options{RequestTimeout: tt.timeout}))
		body := &slowBody{data: []byte(doc), chunk: len(doc)/4 + 1, pause: tt.pause}
		resp, err := http.Post(srv.URL+"/v1/localize/batch?method=probe", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		srv.Close()
		if resp.StatusCode != tt.code {
			t.Errorf("timeout %v, body over %v: status %d, want %d", tt.timeout, 4*tt.pause, resp.StatusCode, tt.code)
		}
		// An item whose deadline expired before it ran may fail without
		// calling the localizer; one that ran must have seen the deadline.
		select {
		case got := <-probe.seen:
			if want := tt.code == http.StatusGatewayTimeout; (got == context.DeadlineExceeded) != want {
				t.Errorf("timeout %v, body over %v: localizer saw %v", tt.timeout, 4*tt.pause, got)
			}
		default:
			if tt.code == http.StatusOK {
				t.Errorf("timeout %v: localizer never ran", tt.timeout)
			}
		}
	}
}

// lockedBuffer is a log sink safe for the server's handler goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// TestDegradedRequestsLogUnderTheSampler checks a degraded request is
// reported on its sampled request line and nowhere else: with a 2 ms
// request timeout, ten degraded requests at a cap of two lines a second
// write at most two lines per second they span, each marked degraded with
// its reason.
func TestDegradedRequestsLogUnderTheSampler(t *testing.T) {
	withTestMethod(t, "stall", stallLocalizer{})
	var sink lockedBuffer
	obs.ConfigureLogging(&sink, slog.LevelInfo, false)
	t.Cleanup(func() { obs.ConfigureLogging(io.Discard, slog.LevelInfo, false) })
	const maxPerSec, requests = 2, 10
	srv := httptest.NewServer(New(Options{Registry: obs.NewRegistry(), RequestTimeout: 2 * time.Millisecond, LogMaxPerSec: maxPerSec}))
	first := time.Now().Unix()
	for range requests {
		resp, err := http.Post(srv.URL+"/v1/localize?method=stall", "text/csv", strings.NewReader(sampleCSV))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want %d", resp.StatusCode, http.StatusGatewayTimeout)
		}
	}
	last := time.Now().Unix()
	srv.Close() // waits for the handlers, so every line is written

	sink.mu.Lock()
	lines := strings.Split(strings.TrimSpace(sink.buf.String()), "\n")
	sink.mu.Unlock()
	if bound := maxPerSec * int(last-first+1); len(lines) > bound || bound >= requests {
		t.Fatalf("%d degraded requests over %d s wrote %d lines, want at most %d:\n%s",
			requests, last-first+1, len(lines), bound, strings.Join(lines, "\n"))
	}
	for _, line := range lines {
		if !strings.Contains(line, "msg=request") || !strings.Contains(line, "degraded=true") ||
			!strings.Contains(line, "degraded_reason=\""+localize.DegradedDeadline+"\"") {
			t.Errorf("line %q is not a request line marked degraded with reason %q", line, localize.DegradedDeadline)
		}
	}
}
