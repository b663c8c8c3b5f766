package main

import (
	"strings"
	"testing"
)

// golden is a slice of cmd/serve's /metrics page as the registry renders it.
const golden = `# HELP http_request_duration_seconds Request latency by matched route.
# TYPE http_request_duration_seconds histogram
http_request_duration_seconds_bucket{route="POST /v1/localize",le="0.005"} 3
http_request_duration_seconds_bucket{route="POST /v1/localize",le="+Inf"} 10
http_request_duration_seconds_sum{route="POST /v1/localize"} 0.425
http_request_duration_seconds_count{route="POST /v1/localize"} 10
http_request_duration_seconds_sum{route="none"} 0
# HELP rapminer_runs_total Localization runs published.
# TYPE rapminer_runs_total counter
rapminer_runs_total 10
rapminer_rollup_fallback_total 2
process_start_time_seconds 1.7765e+09
`

func TestParseExpositionGolden(t *testing.T) {
	before, err := parseExposition(strings.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	route := `{route="POST /v1/localize"}`
	for series, want := range map[string]float64{
		"http_request_duration_seconds_sum" + route:                                 0.425,
		"http_request_duration_seconds_count" + route:                               10,
		`http_request_duration_seconds_bucket{route="POST /v1/localize",le="+Inf"}`: 10,
		"rapminer_runs_total":        10,
		"process_start_time_seconds": 1.7765e9,
	} {
		if got, ok := before[series]; !ok || got != want {
			t.Errorf("%s = %v (present %v), want %v", series, got, ok, want)
		}
	}
	after, err := parseExposition(strings.NewReader(strings.NewReplacer(
		"0.425", "0.925", "count{route=\"POST /v1/localize\"} 10", "count{route=\"POST /v1/localize\"} 20",
		"rapminer_runs_total 10", "rapminer_runs_total 20", "fallback_total 2", "fallback_total 7",
	).Replace(golden)))
	if err != nil {
		t.Fatal(err)
	}
	if d := delta(before, after, "http_request_duration_seconds_count"+route); d != 10 {
		t.Errorf("count delta %v, want 10", d)
	}
	if d := delta(before, after, "http_request_duration_seconds_sum"+route); d != 0.5 {
		t.Errorf("sum delta %v, want 0.5", d)
	}
	if d := delta(before, after, "pipeline_delta_apply_seconds_count"); d != 0 {
		t.Errorf("absent series delta %v, want 0", d)
	}
	if _, err := parseExposition(strings.NewReader("no_value_here\n")); err == nil {
		t.Error("a sample without a value must be refused")
	}
}
