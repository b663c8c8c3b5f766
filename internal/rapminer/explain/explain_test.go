package explain

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/kpi"
	"repro/internal/localize"
	"repro/internal/rapminer"
)

// testSnapshot builds a small two-attribute snapshot with the (a1, *)
// subtree anomalous.
func testSnapshot(t *testing.T) *kpi.Snapshot {
	t.Helper()
	s := kpi.MustSchema(
		kpi.Attribute{Name: "Location", Values: []string{"a1", "a2", "a3"}},
		kpi.Attribute{Name: "Website", Values: []string{"b1", "b2"}},
	)
	snap := &kpi.Snapshot{Schema: s}
	for a := int32(0); a < 3; a++ {
		for b := int32(0); b < 2; b++ {
			leaf := kpi.Leaf{Combo: kpi.Combination{a, b}, Forecast: 100, Actual: 100}
			if a == 0 {
				leaf.Actual = 20
				leaf.Anomalous = true
			}
			snap.Leaves = append(snap.Leaves, leaf)
		}
	}
	return snap
}

// minedReport runs the miner on the test snapshot and wraps the result.
func minedReport(t *testing.T, traceID string) (Report, rapminer.Diagnostics, *kpi.Snapshot) {
	t.Helper()
	snap := testSnapshot(t)
	m := rapminer.MustNew(rapminer.DefaultConfig())
	_, diag, err := m.LocalizeWithDiagnosticsContext(context.Background(), snap, 2)
	if err != nil {
		t.Fatal(err)
	}
	return New(traceID, "httpapi", "RAPMiner", snap, 2, diag, 1500*time.Microsecond), diag, snap
}

func TestNewReportMapsDiagnostics(t *testing.T) {
	r, diag, snap := minedReport(t, "abc123")

	if r.TraceID != "abc123" || r.Source != "httpapi" || r.Method != "RAPMiner" || r.K != 2 {
		t.Errorf("header = %+v", r)
	}
	if r.Leaves != snap.Len() || r.AnomalousLeaves != snap.NumAnomalous() {
		t.Errorf("leaf counts = %d/%d", r.AnomalousLeaves, r.Leaves)
	}
	if r.ElapsedMS != 1.5 {
		t.Errorf("elapsed = %v ms", r.ElapsedMS)
	}
	if r.TCP != diag.TCP || r.TConf != diag.TConf {
		t.Errorf("thresholds = (%v, %v)", r.TCP, r.TConf)
	}
	if len(r.Attributes) != 2 {
		t.Fatalf("attributes = %d, want 2", len(r.Attributes))
	}
	if r.Attributes[0].Name != "Location" || !r.Attributes[0].Kept {
		t.Errorf("Location verdict = %+v", r.Attributes[0])
	}
	if r.Attributes[1].Name != "Website" || r.Attributes[1].Kept {
		t.Errorf("Website verdict = %+v (should be deleted: no classification power)", r.Attributes[1])
	}
	if len(r.Candidates) != len(diag.CandidateSet) {
		t.Fatalf("candidates = %d, want %d", len(r.Candidates), len(diag.CandidateSet))
	}
	top := r.Candidates[0]
	if got := strings.Join(top.Combination, ","); got != "a1,*" {
		t.Errorf("top candidate = %q, want a1,*", got)
	}
	if top.Rank != 1 || !top.Returned || top.Layer != 1 || top.Confidence != 1 {
		t.Errorf("top candidate = %+v", top)
	}
	if !r.EarlyStopped || r.EarlyStopLayer != 1 {
		t.Errorf("early stop = (%v, %d)", r.EarlyStopped, r.EarlyStopLayer)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	r, _, _ := minedReport(t, "roundtrip")
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.TraceID != r.TraceID || len(back.Candidates) != len(r.Candidates) ||
		len(back.Layers) != len(r.Layers) || back.Candidates[0].RAPScore != r.Candidates[0].RAPScore {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestReportRender(t *testing.T) {
	r, _, _ := minedReport(t, "rendered")
	var b strings.Builder
	r.Render(&b)
	out := b.String()
	for _, want := range []string{
		"run rendered",
		"stage 1 — attribute deletion",
		"Location",
		"kept",
		"deleted",
		"stage 2 — AC-guided search",
		"layer 1:",
		"early stop at layer 1",
		"(a1, *)",
		"RAPScore = Confidence / sqrt(Layer)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
}

// TestResultReportRender checks a method without a search journal gets a
// report of its returned patterns, rendered without the Algorithm 1 and 2
// sections.
func TestResultReportRender(t *testing.T) {
	snap := testSnapshot(t)
	res := localize.Result{
		Patterns:       []localize.ScoredPattern{{Combo: kpi.Combination{0, kpi.Wildcard}, Score: 0.75}},
		Degraded:       true,
		DegradedReason: localize.DegradedDeadline,
	}
	r := NewResult("plain", "pipeline", "Squeeze", snap, 3, res, 2*time.Millisecond)
	if !r.PatternsOnly || r.Method != "Squeeze" || r.K != 3 || r.Leaves != 6 || r.AnomalousLeaves != 2 || r.ElapsedMS != 2 {
		t.Errorf("header = %+v", r)
	}
	if !r.Degraded || r.DegradedReason != localize.DegradedDeadline {
		t.Errorf("degraded = (%v, %q)", r.Degraded, r.DegradedReason)
	}
	want := []Pattern{{Rank: 1, Combination: []string{"a1", "*"}, Score: 0.75}}
	if fmt.Sprint(r.Patterns) != fmt.Sprint(want) {
		t.Errorf("patterns = %+v, want %+v", r.Patterns, want)
	}
	var b strings.Builder
	r.Render(&b)
	out := b.String()
	for _, want := range []string{"run plain", "method Squeeze  k=3", "DEGRADED (deadline exceeded)", " 1. (a1, *)  score 0.7500"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q:\n%s", want, out)
		}
	}
	for _, absent := range []string{"stage 1", "stage 2", "RAPScore"} {
		if strings.Contains(out, absent) {
			t.Errorf("rendered report carries %q:\n%s", absent, out)
		}
	}
}

func TestStoreBoundedEviction(t *testing.T) {
	s := NewStore(3)
	for i := 0; i < 5; i++ {
		s.Put(Report{TraceID: fmt.Sprintf("id-%d", i)})
	}
	if s.Len() != 3 || s.Total() != 5 {
		t.Errorf("Len = %d, Total = %d", s.Len(), s.Total())
	}
	if _, ok := s.Get("id-0"); ok {
		t.Error("oldest report not evicted")
	}
	if _, ok := s.Get("id-4"); !ok {
		t.Error("newest report missing")
	}
	recent := s.Recent()
	if len(recent) != 3 || recent[0].TraceID != "id-4" || recent[2].TraceID != "id-2" {
		t.Errorf("Recent = %+v", recent)
	}

	// Empty IDs are dropped; replacing an existing ID does not grow.
	s.Put(Report{})
	s.Put(Report{TraceID: "id-4", Source: "updated"})
	if s.Len() != 3 {
		t.Errorf("Len after replace = %d", s.Len())
	}
	if got, _ := s.Get("id-4"); got.Source != "updated" {
		t.Errorf("replace did not take: %+v", got)
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore(16)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				s.Put(Report{TraceID: fmt.Sprintf("w%d-%d", w, i)})
				s.Recent()
				s.Get(fmt.Sprintf("w%d-%d", w, i))
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	if s.Total() != 8*200 {
		t.Errorf("Total = %d", s.Total())
	}
}

func TestRunsHandlers(t *testing.T) {
	s := NewStore(8)
	r, _, _ := minedReport(t, "deadbeef")
	s.Put(r)

	mux := http.NewServeMux()
	mux.Handle("GET /debug/runs", s.RunsHandler())
	mux.Handle("GET /debug/runs/{id}", s.RunHandler())

	// Listing.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/runs", nil))
	var list struct {
		Total int       `json:"total"`
		Runs  []Summary `json:"runs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Total != 1 || len(list.Runs) != 1 || list.Runs[0].TraceID != "deadbeef" {
		t.Errorf("listing = %+v", list)
	}
	if list.Runs[0].Candidates != len(r.Candidates) || !list.Runs[0].EarlyStopped {
		t.Errorf("summary = %+v", list.Runs[0])
	}

	// Fetch by ID.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/runs/deadbeef", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var got Report
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.TraceID != "deadbeef" || len(got.Candidates) == 0 {
		t.Errorf("report = %+v", got)
	}

	// Unknown ID is a JSON 404.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/runs/nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown ID status = %d", rec.Code)
	}
	var apiErr map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil || apiErr["error"] == "" {
		t.Errorf("404 body = %q", rec.Body.String())
	}
}
