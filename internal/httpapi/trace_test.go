package httpapi

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/anomaly"
	"repro/internal/kpi"
	"repro/internal/methods"
	"repro/internal/obs"
	"repro/internal/rapminer"
	"repro/internal/rapminer/explain"
)

const incomingTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// postLocalizeTraced POSTs sampleCSV to /v1/localize with the given
// traceparent header (empty = none) and returns the response.
func postLocalizeTraced(t *testing.T, srv *httptest.Server, header string) (*http.Response, localizeResponse) {
	t.Helper()
	req, err := http.NewRequest("POST", srv.URL+"/v1/localize", strings.NewReader(sampleCSV))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/csv")
	if header != "" {
		req.Header.Set(TraceparentHeader, header)
	}
	resp, err := http.DefaultClient.Do(req)
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

func TestTraceparentPropagation(t *testing.T) {
	srv := newServer(t)

	// A valid incoming traceparent is adopted: the request joins the
	// caller's trace, and the response header names a server-side span in
	// that same trace.
	resp, out := postLocalizeTraced(t, srv, incomingTraceparent)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	echoed, err := obs.ParseTraceparent(resp.Header.Get(TraceparentHeader))
	if err != nil {
		t.Fatalf("response traceparent invalid: %v", err)
	}
	if echoed.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("response trace ID = %q, want the caller's", echoed.TraceID)
	}
	if echoed.SpanID == "00f067aa0ba902b7" {
		t.Error("response span ID should name the server's span, not echo the caller's")
	}
	if out.TraceID != echoed.TraceID {
		t.Errorf("body trace_id = %q, header trace ID = %q", out.TraceID, echoed.TraceID)
	}

	// The request's internal spans all joined that trace and form a tree:
	// http.request -> httpapi.localize -> rapminer stages.
	names := map[string]obs.SpanRecord{}
	for _, sp := range obs.RecentSpans() {
		if sp.TraceID == echoed.TraceID {
			names[sp.Name] = sp
		}
	}
	for _, want := range []string{"http.request", "httpapi.localize", "rapminer.attribute_deletion", "rapminer.search"} {
		if _, ok := names[want]; !ok {
			t.Errorf("span %q missing from trace %s", want, echoed.TraceID)
		}
	}
	if root, ok := names["http.request"]; ok {
		if root.ParentID != "00f067aa0ba902b7" {
			t.Errorf("http.request parent = %q, want the caller's span ID", root.ParentID)
		}
		if loc, ok := names["httpapi.localize"]; ok && loc.ParentID != root.SpanID {
			t.Errorf("httpapi.localize parent = %q, want http.request span %q", loc.ParentID, root.SpanID)
		}
	}
}

func TestTraceparentMalformedGetsFreshTrace(t *testing.T) {
	srv := newServer(t)
	for _, bad := range []string{
		"garbage",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
	} {
		resp, out := postLocalizeTraced(t, srv, bad)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("malformed traceparent %q failed the request: %d", bad, resp.StatusCode)
		}
		tc, err := obs.ParseTraceparent(resp.Header.Get(TraceparentHeader))
		if err != nil {
			t.Fatalf("response to %q has invalid traceparent: %v", bad, err)
		}
		if tc.TraceID == "4bf92f3577b34da6a3ce929d0e0e4736" || tc.TraceID == "" {
			t.Errorf("malformed %q: trace ID %q not freshly generated", bad, tc.TraceID)
		}
		if out.TraceID != tc.TraceID {
			t.Errorf("body/header trace mismatch: %q vs %q", out.TraceID, tc.TraceID)
		}
	}
}

func TestTraceparentUniquePerRequest(t *testing.T) {
	srv := newServer(t)
	seen := make(map[string]bool)
	for i := 0; i < 5; i++ {
		resp, out := postLocalizeTraced(t, srv, "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if out.TraceID == "" || seen[out.TraceID] {
			t.Fatalf("request %d: trace ID %q not unique", i, out.TraceID)
		}
		seen[out.TraceID] = true
	}
}

// TestExplainReportEndToEnd is the acceptance path: localize with a
// traceparent, fetch /debug/runs/{trace-id}, and check the report against
// LocalizeWithDiagnosticsContext on the same snapshot.
func TestExplainReportEndToEnd(t *testing.T) {
	srv := newServer(t)

	resp, out := postLocalizeTraced(t, srv, incomingTraceparent)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("localize status = %d", resp.StatusCode)
	}

	runResp, err := http.Get(srv.URL + "/debug/runs/" + out.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer runResp.Body.Close()
	if runResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/runs/%s = %d", out.TraceID, runResp.StatusCode)
	}
	var report explain.Report
	if err := json.NewDecoder(runResp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}

	// Reproduce the server's run: same CSV, same default labeling, same
	// miner config, same default k.
	snap, err := kpi.ReadCSV(strings.NewReader(sampleCSV), nil)
	if err != nil {
		t.Fatal(err)
	}
	anomaly.Label(snap, anomaly.DefaultRelativeDeviation())
	m := rapminer.MustNew(rapminer.DefaultConfig())
	res, diag, err := m.LocalizeWithDiagnosticsContext(context.Background(), snap, 3)
	if err != nil {
		t.Fatal(err)
	}

	if report.TraceID != out.TraceID || report.Source != "httpapi" || report.K != 3 {
		t.Errorf("report header = %+v", report)
	}
	if report.Leaves != snap.Len() || report.AnomalousLeaves != snap.NumAnomalous() {
		t.Errorf("report counts %d/%d, want %d/%d",
			report.AnomalousLeaves, report.Leaves, snap.NumAnomalous(), snap.Len())
	}

	// Kept attributes agree with Algorithm 1 on the same snapshot.
	kept := make(map[int]bool)
	for _, a := range diag.KeptAttributes {
		kept[a] = true
	}
	if len(report.Attributes) != len(diag.CPs) {
		t.Fatalf("report has %d attribute verdicts, want %d", len(report.Attributes), len(diag.CPs))
	}
	for _, v := range report.Attributes {
		if v.Kept != kept[v.Attr] {
			t.Errorf("attribute %s kept = %v, local run says %v", v.Name, v.Kept, kept[v.Attr])
		}
	}

	// Per-layer counts agree with Algorithm 2 on the same snapshot.
	if len(report.Layers) != len(diag.Layers) {
		t.Fatalf("report has %d layers, want %d", len(report.Layers), len(diag.Layers))
	}
	for i, l := range report.Layers {
		if l != diag.Layers[i] {
			t.Errorf("layer %d = %+v, local run says %+v", i+1, l, diag.Layers[i])
		}
	}
	if report.CuboidsVisited != diag.CuboidsVisited || report.CombinationsScanned != diag.CombinationsScanned {
		t.Errorf("report totals (%d, %d), local run (%d, %d)",
			report.CuboidsVisited, report.CombinationsScanned, diag.CuboidsVisited, diag.CombinationsScanned)
	}

	// Ranked candidates agree: combination, confidence, layer, RAPScore.
	if len(report.Candidates) != len(diag.CandidateSet) {
		t.Fatalf("report has %d candidates, want %d", len(report.Candidates), len(diag.CandidateSet))
	}
	for i, c := range report.Candidates {
		want := diag.CandidateSet[i]
		got := "(" + strings.Join(c.Combination, ", ") + ")"
		if got != want.Combo.Format(snap.Schema) {
			t.Errorf("candidate %d = %s, local run says %s", i, got, want.Combo.Format(snap.Schema))
		}
		if math.Abs(c.Confidence-want.Confidence) > 1e-12 || c.Layer != want.Layer ||
			math.Abs(c.RAPScore-want.RAPScore) > 1e-12 {
			t.Errorf("candidate %d = %+v, local run says %+v", i, c, want)
		}
		if c.Returned != (i < len(res.Patterns)) {
			t.Errorf("candidate %d Returned = %v", i, c.Returned)
		}
	}

	// The response patterns match the report's returned candidates.
	if len(out.Patterns) == 0 || len(out.Patterns) > len(report.Candidates) {
		t.Fatalf("response has %d patterns, report %d candidates", len(out.Patterns), len(report.Candidates))
	}
	for i, p := range out.Patterns {
		if strings.Join(p.Combination, ",") != strings.Join(report.Candidates[i].Combination, ",") {
			t.Errorf("response pattern %d = %v, report says %v", i, p.Combination, report.Candidates[i].Combination)
		}
	}
}

// TestEveryMethodLeavesExplainReport checks every method's POST
// /v1/localize run is fetchable at /debug/runs/{trace_id}: RAPMiner's with
// its search journal, every other method's with the patterns it returned.
func TestEveryMethodLeavesExplainReport(t *testing.T) {
	srv := newServer(t)
	for _, key := range methods.Keys() {
		resp, err := http.Post(srv.URL+"/v1/localize?method="+key, "text/csv", strings.NewReader(sampleCSV))
		if err != nil {
			t.Fatal(err)
		}
		var out localizeResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, decode %v", key, resp.StatusCode, err)
		}
		status, body := get(t, srv.URL+"/debug/runs/"+out.TraceID)
		if status != http.StatusOK {
			t.Fatalf("%s: GET /debug/runs/%s = %d", key, out.TraceID, status)
		}
		var report explain.Report
		if err := json.Unmarshal([]byte(body), &report); err != nil {
			t.Fatal(err)
		}
		if report.Method != out.Method || report.Source != "httpapi" || report.K != 3 || report.Leaves != out.Leaves {
			t.Errorf("%s: report header %+v", key, report)
		}
		if report.PatternsOnly != (key != "rapminer") {
			t.Errorf("%s: report patterns only = %v", key, report.PatternsOnly)
		}
		if key == "rapminer" {
			continue
		}
		if len(report.Patterns) != len(out.Patterns) {
			t.Fatalf("%s: report has %d patterns, response %d", key, len(report.Patterns), len(out.Patterns))
		}
		for i, p := range out.Patterns {
			if got := report.Patterns[i]; !reflect.DeepEqual(got.Combination, p.Combination) || got.Score != p.Score {
				t.Errorf("%s: report pattern %d = %+v, response %+v", key, i, got, p)
			}
		}
	}
}

// TestDecodeSpansAreChildrenOfRequest checks that every JSON decode the
// server does — the localize, monitor and continuous snapshot routes, and
// the continuous delta route — runs in a kpi.read_json or
// kpi.read_delta_json span under the request's http.request span, carrying
// the body's bytes, the leaves decoded and the decode parts. The body read
// before it is an httpapi.read_body span under http.request carrying the
// same bytes, and so is the delta route's pipeline.apply span (ApplyDelta
// plus LabelDelta).
func TestDecodeSpansAreChildrenOfRequest(t *testing.T) {
	plain := newServer(t)
	continuous := newContinuousServer(t)
	snapshot := continuousSnapshotJSON(t, 0.5)
	for i, tt := range []struct {
		srv          *httptest.Server
		path, body   string
		span         string
		leaves, code int
		// stages are further spans that must be children of http.request.
		stages []string
	}{
		{plain, "/v1/localize", snapshot, "kpi.read_json", 6, http.StatusOK, []string{"httpapi.read_body"}},
		{plain, "/v1/observe?ts=2026-01-01T00:00:00Z", snapshot, "kpi.read_json", 6, http.StatusOK, []string{"httpapi.read_body"}},
		{continuous, "/v1/observe/snapshot", snapshot, "kpi.read_json", 6, http.StatusOK, []string{"httpapi.read_body"}},
		{continuous, "/v1/observe/delta", failDelta(0.5), "kpi.read_delta_json", 2, http.StatusOK, []string{"httpapi.read_body", "pipeline.apply"}},
		{plain, "/v1/localize", `{"attributes":[`, "kpi.read_json", 0, http.StatusBadRequest, []string{"httpapi.read_body"}},
	} {
		traceID := fmt.Sprintf("4bf92f3577b34da6a3ce929d0e0e47%02d", i)
		req, err := http.NewRequest("POST", tt.srv.URL+tt.path, strings.NewReader(tt.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(TraceparentHeader, "00-"+traceID+"-00f067aa0ba902b7-01")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tt.code {
			t.Fatalf("%s: status %d, want %d", tt.path, resp.StatusCode, tt.code)
		}
		spans := map[string]obs.SpanRecord{}
		for _, sp := range obs.RecentSpans() {
			if sp.TraceID == traceID {
				spans[sp.Name] = sp
			}
		}
		root, ok := spans["http.request"]
		decode, found := spans[tt.span]
		if !ok || !found {
			t.Fatalf("%s: spans %v lack http.request or %s", tt.path, spans, tt.span)
		}
		if decode.ParentID != root.SpanID {
			t.Errorf("%s: %s parent = %q, want http.request span %q", tt.path, tt.span, decode.ParentID, root.SpanID)
		}
		want := map[string]string{"bytes": fmt.Sprint(len(tt.body)), "leaves": fmt.Sprint(tt.leaves), "parts": "1"}
		for k, v := range want {
			if got := fmt.Sprint(decode.Attrs[k]); got != v {
				t.Errorf("%s: %s attribute %s = %s, want %s", tt.path, tt.span, k, got, v)
			}
		}
		for _, name := range tt.stages {
			sp, ok := spans[name]
			if !ok {
				t.Fatalf("%s: spans %v lack %s", tt.path, spans, name)
			}
			if sp.ParentID != root.SpanID {
				t.Errorf("%s: %s parent = %q, want http.request span %q", tt.path, name, sp.ParentID, root.SpanID)
			}
		}
		if got := fmt.Sprint(spans["httpapi.read_body"].Attrs["bytes"]); got != want["bytes"] {
			t.Errorf("%s: httpapi.read_body attribute bytes = %s, want %s", tt.path, got, want["bytes"])
		}
	}
}
