package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/kpi"
)

func newContinuousServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(Options{Continuous: true, ContinuousWindow: 4}))
	t.Cleanup(srv.Close)
	return srv
}

// continuousSnapshotJSON renders a dense 3x2 snapshot where the leaves under
// (r2, *) lose frac of their forecast.
func continuousSnapshotJSON(t testing.TB, frac float64) string {
	t.Helper()
	schema := kpi.MustSchema(
		kpi.Attribute{Name: "region", Values: []string{"r1", "r2", "r3"}},
		kpi.Attribute{Name: "isp", Values: []string{"i1", "i2"}},
	)
	var leaves []kpi.Leaf
	for a := int32(0); a < 3; a++ {
		for b := int32(0); b < 2; b++ {
			leaf := kpi.Leaf{Combo: kpi.Combination{a, b}, Actual: 100, Forecast: 100}
			if a == 1 {
				leaf.Actual = 100 * (1 - frac)
			}
			leaves = append(leaves, leaf)
		}
	}
	snap, err := kpi.NewSnapshot(schema, leaves)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := kpi.WriteJSON(&buf, snap); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// failDelta re-observes the (r2, *) leaves at frac below forecast.
func failDelta(frac float64) string {
	var sb strings.Builder
	sb.WriteString(`{"updates":[`)
	for i, isp := range []string{"i1", "i2"} {
		if i > 0 {
			sb.WriteString(",")
		}
		enc, _ := json.Marshal(map[string]any{
			"combination": []string{"r2", isp},
			"actual":      100 * (1 - frac),
			"forecast":    100,
		})
		sb.Write(enc)
	}
	sb.WriteString("]}")
	return sb.String()
}

func postContinuous(t *testing.T, srv *httptest.Server, path, body string) (*http.Response, deltaResponse) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out deltaResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("%s: decode: %v", path, err)
		}
	}
	return resp, out
}

func TestContinuousDeltaFlow(t *testing.T) {
	srv := newContinuousServer(t)

	// Baseline install.
	resp, out := postContinuous(t, srv, "/v1/observe/snapshot", continuousSnapshotJSON(t, 0))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	if out.Tick != 1 || out.Leaves != 6 || out.Event != "tick" {
		t.Fatalf("baseline response %+v", out)
	}

	// First failing delta: debounced (arming), patched in place.
	resp, out = postContinuous(t, srv, "/v1/observe/delta", failDelta(0.5))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d", resp.StatusCode)
	}
	if out.Tick != 2 || out.Updated != 2 || !out.Patched || out.Flipped != 2 {
		t.Fatalf("first failing tick %+v", out)
	}
	if out.Event != "arming" {
		t.Fatalf("first failing tick event %q, want arming", out.Event)
	}

	// Second failing delta: incident opens, localized to (r2, *).
	_, out = postContinuous(t, srv, "/v1/observe/delta", failDelta(0.5))
	if out.Event != "opened" || out.Incident == nil {
		t.Fatalf("second failing tick %+v", out)
	}
	if len(out.Incident.Scopes) == 0 {
		t.Fatal("opened incident carries no scopes")
	}
	got := out.Incident.Scopes[0].Combination
	if len(got) != 2 || got[0] != "r2" || got[1] != "*" {
		t.Fatalf("localized scope %v, want [r2 *]", got)
	}

	// Status endpoint reflects the window (bounded at 4) and the incident.
	stResp, err := http.Get(srv.URL + "/v1/observe/continuous")
	if err != nil {
		t.Fatal(err)
	}
	defer stResp.Body.Close()
	var st continuousStatusResponse
	if err := json.NewDecoder(stResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Ticks != 3 || st.Leaves != 6 || len(st.Window) != 3 {
		t.Fatalf("status %+v", st)
	}
	if st.Incident == nil || st.Incident.ResolvedAt != nil {
		t.Fatalf("status incident %+v, want open", st.Incident)
	}
	if !st.Window[1].Delta || !st.Window[1].Patched || st.Window[0].Delta {
		t.Fatalf("window stats %+v", st.Window)
	}
}

func TestContinuousDeltaErrors(t *testing.T) {
	srv := newContinuousServer(t)

	// No baseline yet: state conflict.
	resp, _ := postContinuous(t, srv, "/v1/observe/delta", failDelta(0.5))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("delta before baseline: status %d, want 409", resp.StatusCode)
	}

	if resp, _ := postContinuous(t, srv, "/v1/observe/snapshot", continuousSnapshotJSON(t, 0)); resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline status %d", resp.StatusCode)
	}

	// Malformed document and unknown element name: both the client's fault.
	for _, body := range []string{
		`{"updates":[`,
		`{"updates":[{"combination":["r9","i1"],"actual":1,"forecast":1}]}`,
		`{"updates":[{"combination":["r1"],"actual":1,"forecast":1}]}`,
	} {
		resp, _ := postContinuous(t, srv, "/v1/observe/delta", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// Structurally valid but conflicting with server state: add of a leaf
	// that is already present, remove of one that is not.
	for _, body := range []string{
		`{"adds":[{"combination":["r1","i1"],"actual":1,"forecast":1}]}`,
		`{"removes":[["r1","i1"]],"updates":[{"combination":["r1","i1"],"actual":1,"forecast":1}]}`,
	} {
		resp, _ := postContinuous(t, srv, "/v1/observe/delta", body)
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("body %q: status %d, want 409", body, resp.StatusCode)
		}
	}

	// Rejected deltas record no ticks.
	stResp, err := http.Get(srv.URL + "/v1/observe/continuous")
	if err != nil {
		t.Fatal(err)
	}
	defer stResp.Body.Close()
	var st continuousStatusResponse
	if err := json.NewDecoder(stResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Ticks != 1 {
		t.Fatalf("ticks %d after rejected deltas, want 1", st.Ticks)
	}

	// Malformed ?ts= answers 400 before touching state.
	resp, err = http.Post(srv.URL+"/v1/observe/delta?ts=yesterday", "application/json",
		strings.NewReader(failDelta(0)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ts: status %d, want 400", resp.StatusCode)
	}
}

// TestContinuousSchemaChange: a baseline with a different schema replaces the
// world — the fresh-snapshot fallback — resetting ticks and incident state.
func TestContinuousSchemaChange(t *testing.T) {
	srv := newContinuousServer(t)

	if resp, _ := postContinuous(t, srv, "/v1/observe/snapshot", continuousSnapshotJSON(t, 0)); resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline status %d", resp.StatusCode)
	}
	postContinuous(t, srv, "/v1/observe/delta", failDelta(0.5))
	postContinuous(t, srv, "/v1/observe/delta", failDelta(0.5)) // incident opens

	// New world, one attribute, different cardinality.
	other := `{"attributes":[{"name":"pop","values":["p1","p2"]}],` +
		`"leaves":[{"combination":["p1"],"actual":10,"forecast":10},` +
		`{"combination":["p2"],"actual":10,"forecast":10}]}`
	resp, out := postContinuous(t, srv, "/v1/observe/snapshot", other)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schema-change snapshot status %d", resp.StatusCode)
	}
	if out.Tick != 1 || out.Leaves != 2 || out.Incident != nil {
		t.Fatalf("schema-change response %+v, want fresh world", out)
	}

	// Deltas now resolve against the new schema; the old names are gone.
	resp, _ = postContinuous(t, srv, "/v1/observe/delta", failDelta(0.5))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("old-schema delta status %d, want 400", resp.StatusCode)
	}
	resp, out = postContinuous(t, srv, "/v1/observe/delta",
		`{"updates":[{"combination":["p1"],"actual":9,"forecast":10}]}`)
	if resp.StatusCode != http.StatusOK || out.Updated != 1 {
		t.Fatalf("new-schema delta: status %d %+v", resp.StatusCode, out)
	}
}

// TestContinuousDisabled: without -continuous the endpoints are not mounted.
func TestContinuousDisabledNotMounted(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Post(srv.URL+"/v1/observe/delta", "application/json",
		strings.NewReader(failDelta(0.5)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}
