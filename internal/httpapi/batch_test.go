package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/kpi"
	"repro/internal/methods"
	"repro/internal/obs"
)

// sampleBatchBody builds a batch request of n copies of the sampleCSV
// snapshot encoded as JSON documents.
func sampleBatchBody(t *testing.T, n int) string {
	t.Helper()
	snap, err := kpi.ReadCSV(strings.NewReader(sampleCSV), nil)
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := kpi.WriteJSON(&doc, snap); err != nil {
		t.Fatal(err)
	}
	items := make([]string, n)
	for i := range items {
		items[i] = doc.String()
	}
	return fmt.Sprintf(`{"snapshots":[%s]}`, strings.Join(items, ","))
}

func postBatch(t *testing.T, srv *httptest.Server, path, body string) (*http.Response, batchResponse) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestLocalizeBatchEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, out := postBatch(t, srv, "/v1/localize/batch?k=2", sampleBatchBody(t, 3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Method != "RAPMiner" || out.K != 2 || len(out.Items) != 3 {
		t.Fatalf("response = %+v", out)
	}
	for i, item := range out.Items {
		if item.Error != "" {
			t.Fatalf("item %d: %s", i, item.Error)
		}
		if item.Leaves != 6 || item.Anomalous != 3 {
			t.Errorf("item %d: leaves=%d anomalous=%d", i, item.Leaves, item.Anomalous)
		}
		if len(item.Patterns) == 0 || strings.Join(item.Patterns[0].Combination, ",") != "*,Site1" {
			t.Errorf("item %d: patterns = %v", i, item.Patterns)
		}
	}
	if out.TraceID == "" {
		t.Error("missing trace_id")
	}
}

func TestLocalizeBatchEveryMethod(t *testing.T) {
	srv := newServer(t)
	body := sampleBatchBody(t, 2)
	for _, m := range methods.Keys() {
		t.Run(m, func(t *testing.T) {
			resp, out := postBatch(t, srv, "/v1/localize/batch?method="+m, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			if len(out.Items) != 2 {
				t.Fatalf("items = %+v", out.Items)
			}
			for i, item := range out.Items {
				if item.Error != "" {
					t.Fatalf("item %d: %s", i, item.Error)
				}
			}
		})
	}
}

func TestLocalizeBatchErrors(t *testing.T) {
	srv := newServer(t)
	cases := []struct {
		name, path, body string
		status           int
	}{
		{"empty array", "/v1/localize/batch", `{"snapshots":[]}`, http.StatusBadRequest},
		{"malformed json", "/v1/localize/batch", `{"snapshots":`, http.StatusBadRequest},
		{"bad snapshot", "/v1/localize/batch", `{"snapshots":[{"bogus":1}]}`, http.StatusBadRequest},
		{"unknown method", "/v1/localize/batch?method=nope", sampleBatchBody(t, 1), http.StatusBadRequest},
		{"bad k", "/v1/localize/batch?k=zero", sampleBatchBody(t, 1), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, _ := postBatch(t, srv, tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.status)
			}
		})
	}
}

func TestLocalizeBatchTooManyItems(t *testing.T) {
	srv := newServer(t)
	// One item over the per-request cap: cheap to build (items are small
	// strings) and rejected before any decoding of the snapshots.
	items := make([]string, maxBatchItems+1)
	for i := range items {
		items[i] = "{}"
	}
	body := fmt.Sprintf(`{"snapshots":[%s]}`, strings.Join(items, ","))
	resp, _ := postBatch(t, srv, "/v1/localize/batch", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// TestLocalizeBatchBackpressure exercises the 503 path: with capacity for a
// single item, a two-item batch cannot be admitted.
func TestLocalizeBatchBackpressure(t *testing.T) {
	srv := httptest.NewServer(NewHandlerOpts(Options{
		Registry:     obs.NewRegistry(),
		BatchWorkers: 1,
		BatchQueue:   -1, // no queue: capacity is the single worker slot
	}))
	t.Cleanup(srv.Close)
	resp, _ := postBatch(t, srv, "/v1/localize/batch", sampleBatchBody(t, 2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("missing Retry-After header")
	}
	// A one-item batch fits and succeeds.
	resp, out := postBatch(t, srv, "/v1/localize/batch", sampleBatchBody(t, 1))
	if resp.StatusCode != http.StatusOK || len(out.Items) != 1 {
		t.Fatalf("status = %d items = %+v", resp.StatusCode, out.Items)
	}
}
