package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gendata"
	"repro/internal/kpi"
	"repro/internal/obs"
)

// TestReadBodyBuffer pins the buffer readBody reads into: one of the
// declared length plus one byte when the body declares one, never more than
// maxPreallocBytes reserved ahead of the bytes, and 64 KiB to start with
// when the length is unknown; a full buffer doubles.
func TestReadBodyBuffer(t *testing.T) {
	doc := continuousSnapshotJSON(t, 0.5)
	for _, tt := range []struct {
		name     string
		declared int64
		body     string
		cap      int
	}{
		{"exact length", int64(len(doc)), doc, len(doc) + 1},
		{"unknown length", -1, doc, 64 << 10},
		// Past the cap the buffer starts at the cap and doubles.
		{"exact length past the cap", maxPreallocBytes + 10, strings.Repeat(" ", maxPreallocBytes+10), 2 * maxPreallocBytes},
		// A client that declares the whole limit and sends ten bytes
		// reserves no more than the prealloc cap.
		{"declared 64 MiB, sent 10 bytes", maxBodyBytes, "0123456789", maxPreallocBytes},
	} {
		t.Run(tt.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/v1/localize", io.NopCloser(strings.NewReader(tt.body)))
			req.ContentLength = tt.declared
			b, err := readBody(context.Background(), httptest.NewRecorder(), req)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != tt.body {
				t.Fatalf("read %d bytes, want the %d sent", len(b), len(tt.body))
			}
			if cap(b) != tt.cap {
				t.Errorf("buffer cap %d, want %d", cap(b), tt.cap)
			}
		})
	}
}

// TestDeclaredLengthMatchesChunked sends the same requests to two fresh
// servers, once with an exact Content-Length and once chunked (length
// unknown to the server), over every route that reads a body, and expects
// byte-identical replies apart from trace IDs and timings.
func TestDeclaredLengthMatchesChunked(t *testing.T) {
	var (
		snapshot = continuousSnapshotJSON(t, 0.5)
		quiet    = continuousSnapshotJSON(t, 0)
		ts       = "ts=2026-01-01T00:00:00Z"
	)
	requests := []struct{ path, contentType, body string }{
		{"/v1/localize?k=2", "text/csv", sampleCSV},
		{"/v1/localize", "application/json", snapshot},
		{"/v1/localize", "application/json", `{"attributes":[`},
		{"/v1/localize/batch", "application/json", sampleBatchBody(t, 2)},
		{"/v1/localize/batch", "application/json", `{"snapshots":[{"leaves":[}]}`},
		{"/v1/observe/snapshot?" + ts, "application/json", quiet},
		{"/v1/observe/delta?" + ts, "application/json", failDelta(0.5)},
		{"/v1/observe/delta?" + ts, "application/json", `{"updates":[{"combination":["r9","i1"],"actual":1,"forecast":1}]}`},
		{"/v1/observe?" + ts, "application/json", quiet},
	}
	volatile := regexp.MustCompile(`"(trace_id|elapsed_ms|apply_ms)":[^,}]*`)
	replies := func(chunked bool) []string {
		var (
			mu   sync.Mutex
			seen []int64
		)
		h := New(Options{Registry: obs.NewRegistry(), Continuous: true})
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen = append(seen, r.ContentLength)
			mu.Unlock()
			h.ServeHTTP(w, r)
		}))
		defer srv.Close()
		var out []string
		for _, rq := range requests {
			var body io.Reader = strings.NewReader(rq.body)
			if chunked {
				body = io.MultiReader(body) // hides the length from the client
			}
			resp, err := http.Post(srv.URL+rq.path, rq.contentType, body)
			if err != nil {
				t.Fatal(err)
			}
			reply, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%s %d %s", rq.path, resp.StatusCode, volatile.ReplaceAll(reply, []byte(`"$1":0`))))
		}
		mu.Lock()
		defer mu.Unlock()
		for i, n := range seen {
			if chunked && n != -1 || !chunked && n != int64(len(requests[i].body)) {
				t.Fatalf("request %d reached the server with Content-Length %d (chunked %v)", i, n, chunked)
			}
		}
		return out
	}
	exact, chunked := replies(false), replies(true)
	for i := range exact {
		if exact[i] != chunked[i] {
			t.Errorf("request %d replies differ:\n exact:   %s\n chunked: %s", i, exact[i], chunked[i])
		}
	}
}

// TestDeclaredLengthOverLimit sends a body that declares more than
// maxBodyBytes, and carries that many bytes, to every JSON route: each
// answers 413, before the delta route looks for a baseline.
func TestDeclaredLengthOverLimit(t *testing.T) {
	h := New(Options{Registry: obs.NewRegistry(), Continuous: true})
	for _, path := range []string{"/v1/localize", "/v1/localize/batch", "/v1/observe", "/v1/observe/snapshot", "/v1/observe/delta"} {
		req := httptest.NewRequest(http.MethodPost, path, io.LimitReader(neverEnding(' '), maxBodyBytes+10))
		req.ContentLength = maxBodyBytes + 10
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "exceeds") {
			t.Errorf("%s: status %d %s, want 413", path, rec.Code, rec.Body.Bytes())
		}
	}
}

// TestBodyShorterThanDeclared sends a complete snapshot document on a raw
// connection under a Content-Length 100 bytes longer, then closes the
// connection's write side: the body ends early, and the server answers 400
// rather than decoding what arrived.
func TestBodyShorterThanDeclared(t *testing.T) {
	srv := newServer(t)
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	doc := continuousSnapshotJSON(t, 0.5)
	fmt.Fprintf(conn, "POST /v1/localize HTTP/1.1\r\nHost: test\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		len(doc)+100, doc)
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(reply), "unexpected EOF") {
		t.Errorf("status %d %s, want 400 naming the short body", resp.StatusCode, reply)
	}
}

// TestSlowDeltaBodyDoesNotBlockIncidents holds a delta's body open through
// a pipe after its first half: the handler reads bodies before it takes the
// world's lock, so GET /v1/incidents answers while the delta waits for the
// rest, and the delta applies once its body is released.
func TestSlowDeltaBodyDoesNotBlockIncidents(t *testing.T) {
	h := New(Options{Registry: obs.NewRegistry(), Continuous: true})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observe/snapshot", strings.NewReader(continuousSnapshotJSON(t, 0))))
	if rec.Code != http.StatusOK {
		t.Fatalf("baseline: status %d %s", rec.Code, rec.Body.Bytes())
	}

	pr, pw := io.Pipe()
	delta := failDelta(0.5)
	deltaDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observe/delta", pr))
		deltaDone <- rec
	}()
	// The write returns once the handler has read these bytes; it then
	// waits in the body read for the rest.
	if _, err := io.WriteString(pw, delta[:len(delta)/2]); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	released := sync.OnceFunc(func() { close(release) })
	defer released()
	go func() {
		<-release
		io.WriteString(pw, delta[len(delta)/2:])
		pw.Close()
	}()

	incidents := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/incidents", nil))
		incidents <- rec.Code
	}()
	select {
	case code := <-incidents:
		if code != http.StatusOK {
			t.Errorf("GET /v1/incidents: status %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("GET /v1/incidents blocked behind a delta whose body is still open")
	}
	released()
	if rec := <-deltaDone; rec.Code != http.StatusOK {
		t.Errorf("delta: status %d %s", rec.Code, rec.Body.Bytes())
	}
}

// BenchmarkLocalizeHTTP posts the oneshot-cdn workload's bodies, RAPMD
// cases of ~10k labeled leaves written as JSON, to /v1/localize on a
// loopback server, one request at a time. Each request carries its
// Content-Length, as the load generator's do. B/op counts the client and
// the server, body read included: the cost BenchmarkReadJSON, which decodes
// from a bytes.Reader, does not see.
func BenchmarkLocalizeHTTP(b *testing.B) {
	corpus, err := gendata.RAPMDParallel(1, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	var bodies [][]byte
	total := 0
	for _, c := range corpus.Cases {
		var buf bytes.Buffer
		if err := kpi.WriteJSON(&buf, c.Snapshot); err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
		total += buf.Len()
	}
	srv := httptest.NewServer(New(Options{Registry: obs.NewRegistry()}))
	defer srv.Close()
	b.SetBytes(int64(total / len(bodies)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(srv.URL+"/v1/localize", "application/json", bytes.NewReader(bodies[i%len(bodies)]))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}
