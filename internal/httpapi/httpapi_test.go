package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/kpi"
	"repro/internal/methods"
)

const sampleCSV = `Location,Website,actual,forecast
L1,Site1,40,100
L1,Site2,100,100
L2,Site1,38,95
L2,Site2,101,100
L3,Site1,41,100
L3,Site2,98,100
`

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler())
	t.Cleanup(srv.Close)
	return srv
}

func TestHealthz(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("body = %v", body)
	}
}

func TestMethodsEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/v1/methods")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body["methods"]) != 8 {
		t.Errorf("methods = %v", body["methods"])
	}
	// Every advertised method must resolve.
	for _, m := range body["methods"] {
		if _, ok := lookupMethod(m); !ok {
			t.Errorf("advertised method %q has no builder", m)
		}
	}
}

func postLocalize(t *testing.T, srv *httptest.Server, path, contentType, body string) (*http.Response, localizeResponse) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out localizeResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestLocalizeCSV(t *testing.T) {
	srv := newServer(t)
	resp, out := postLocalize(t, srv, "/v1/localize?k=2", "text/csv", sampleCSV)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Method != "RAPMiner" || out.Leaves != 6 || out.Anomalous != 3 {
		t.Fatalf("response = %+v", out)
	}
	if len(out.Patterns) == 0 {
		t.Fatal("no patterns returned")
	}
	got := strings.Join(out.Patterns[0].Combination, ",")
	if got != "*,Site1" {
		t.Errorf("top pattern = %q, want *,Site1", got)
	}
}

func TestLocalizeJSON(t *testing.T) {
	// Round-trip the same snapshot through the JSON codec.
	snap, err := kpi.ReadCSV(strings.NewReader(sampleCSV), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := kpi.WriteJSON(&buf, snap); err != nil {
		t.Fatal(err)
	}
	srv := newServer(t)
	resp, out := postLocalize(t, srv, "/v1/localize", "application/json", buf.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Patterns) == 0 || strings.Join(out.Patterns[0].Combination, ",") != "*,Site1" {
		t.Fatalf("patterns = %v", out.Patterns)
	}
}

func TestLocalizeEveryMethod(t *testing.T) {
	srv := newServer(t)
	for _, m := range methods.Keys() {
		t.Run(m, func(t *testing.T) {
			resp, out := postLocalize(t, srv, "/v1/localize?method="+m, "text/csv", sampleCSV)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			if out.Method == "" {
				t.Error("method missing from response")
			}
		})
	}
}

func TestLocalizeSqueezeZeroDenominator(t *testing.T) {
	// L1's forecast + actual is 0, so its Squeeze deviation score is
	// 2e10: a histogram over the score range would need 4e11 bins, and
	// the server used to die of a fatal out-of-memory error here.
	const body = "Location,actual,forecast\nL1,-5,5\nL2,40,100\nL3,100,100\n"
	srv := newServer(t)
	resp, out := postLocalize(t, srv, "/v1/localize?method=squeeze&k=3", "text/csv", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	found := map[string]bool{}
	for _, p := range out.Patterns {
		found[strings.Join(p.Combination, ",")] = true
	}
	if !found["L1"] || !found["L2"] {
		t.Errorf("patterns = %+v, want L1 and L2", out.Patterns)
	}
	health, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("healthz after the request = %d", health.StatusCode)
	}
}

func TestLocalizeErrors(t *testing.T) {
	srv := newServer(t)
	tests := []struct {
		name        string
		path        string
		contentType string
		body        string
		wantStatus  int
	}{
		{"unknown method", "/v1/localize?method=bogus", "text/csv", sampleCSV, http.StatusBadRequest},
		{"bad k", "/v1/localize?k=0", "text/csv", sampleCSV, http.StatusBadRequest},
		{"bad csv", "/v1/localize", "text/csv", "not,a,snapshot", http.StatusBadRequest},
		{"bad json", "/v1/localize", "application/json", "{", http.StatusBadRequest},
		{"bad content type", "/v1/localize", "application/xml", "<x/>", http.StatusUnsupportedMediaType},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resp, _ := postLocalize(t, srv, tt.path, tt.contentType, tt.body)
			if resp.StatusCode != tt.wantStatus {
				t.Errorf("status = %d, want %d", resp.StatusCode, tt.wantStatus)
			}
		})
	}
}

func TestLocalizeMethodNotAllowed(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/v1/localize")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/localize status = %d", resp.StatusCode)
	}
}

func TestLocalizeCharsetParameter(t *testing.T) {
	srv := newServer(t)
	resp, out := postLocalize(t, srv, "/v1/localize", "text/csv; charset=utf-8", sampleCSV)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(out.Patterns) == 0 {
		t.Error("no patterns with charset parameter")
	}
}

func TestLocalizeBodyTooLarge(t *testing.T) {
	srv := newServer(t)
	// A body beyond the 64 MiB cap; build it lazily with a reader to
	// avoid allocating the whole thing.
	resp, err := http.Post(srv.URL+"/v1/localize", "text/csv",
		io.LimitReader(neverEnding('a'), maxBodyBytes+10))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}
}

func TestObserveBodyTooLarge(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Post(srv.URL+"/v1/observe", "text/csv",
		io.LimitReader(neverEnding('a'), maxBodyBytes+10))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("status = %d, want 413", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body["error"], "exceeds") {
		t.Errorf("error = %q", body["error"])
	}
}

// neverEnding is an io.Reader of one repeated byte.
type neverEnding byte

func (b neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}
