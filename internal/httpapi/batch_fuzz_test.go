package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
)

// FuzzLocalizeBatch sends fuzzer bytes as a POST /v1/localize/batch body to
// the route's handler. Whatever the bytes, the reply is 200, 400, 413 or
// 504 — never a 500 or a panic — and a 200 reply carries one item per
// snapshot. The request timeout bounds the work a fuzzer-built schema can
// ask for; one batch worker and no middleware keep each run's coverage
// repeatable, so the fuzzer does not chase scheduling noise.
func FuzzLocalizeBatch(f *testing.F) {
	snap := strings.TrimSpace(continuousSnapshotJSON(f, 0.5))
	items := func(n int) []byte {
		docs := make([]string, n)
		for i := range docs {
			docs[i] = snap
		}
		return []byte(`{"snapshots":[` + strings.Join(docs, ",") + `]}`)
	}
	f.Add(items(2))
	f.Add([]byte(`{"snapshots":[]}`))
	f.Add(items(maxBatchItems + 1))
	f.Add([]byte(`{"snapshots":[` + snap + `,{"attributes":[{"name":"region","values":["r1"]}],"leaves":[{"combination":["r9"],"actual":1,"forecast":1}]}]}`))
	f.Add([]byte(`["not", "an", "object"]`))

	a := &api{batch: pipeline.NewBatchExecutor(obs.NewRegistry(), 1, maxBatchItems), timeout: time.Second}
	h := http.HandlerFunc(a.handleLocalizeBatch)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/localize/batch", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusGatewayTimeout:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			return
		}
		var sent batchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sent); err != nil {
			t.Fatalf("200 for a body that does not decode: %v", err)
		}
		var got batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("200 reply does not decode: %v", err)
		}
		if len(got.Items) != len(sent.Snapshots) {
			t.Fatalf("%d items for %d snapshots", len(got.Items), len(sent.Snapshots))
		}
	})
}
