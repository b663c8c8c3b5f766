package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/loadreport"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R)
BenchmarkSearchParallel/workers=1-8         	     355	   3175092 ns/op	  721935 B/op	    9453 allocs/op
BenchmarkSearchParallel/workers=4-8         	    1024	   1100000 ns/op	  730000 B/op	    9500 allocs/op
BenchmarkThroughput-8                        	     100	  10000000 ns/op	         250.00 MB/s
--- BENCH: BenchmarkSomething
    bench_test.go:42: noise line
PASS
ok  	repro	12.345s
`

func TestParseSampleOutput(t *testing.T) {
	report, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if report.GOOS != "linux" || report.GOARCH != "amd64" || report.Pkg != "repro" {
		t.Fatalf("header = %+v", report)
	}
	if report.CPU != "Intel(R) Xeon(R)" {
		t.Errorf("cpu = %q", report.CPU)
	}
	if len(report.Benchmarks) != 3 {
		t.Fatalf("%d benchmarks, want 3", len(report.Benchmarks))
	}
	b0 := report.Benchmarks[0]
	if b0.Name != "BenchmarkSearchParallel/workers=1-8" || b0.Runs != 355 ||
		b0.NsPerOp != 3175092 || b0.BytesPerOp != 721935 || b0.AllocsOp != 9453 {
		t.Errorf("first result = %+v", b0)
	}
	if mb := report.Benchmarks[2].MBPerSec; mb != 250 {
		t.Errorf("MB/s = %v, want 250", mb)
	}
}

func TestRunEmitsValidJSON(t *testing.T) {
	var out bytes.Buffer
	if _, err := run(strings.NewReader(sampleOutput), &out); err != nil {
		t.Fatal(err)
	}
	var decoded benchReport
	if err := json.Unmarshal(out.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if len(decoded.Benchmarks) != 3 {
		t.Fatalf("round-trip lost benchmarks: %+v", decoded)
	}
}

func TestParseSkipsGarbage(t *testing.T) {
	report, err := parse(strings.NewReader("BenchmarkBroken-8 notanumber 12 ns/op\nrandom text\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 0 {
		t.Fatalf("garbage parsed as results: %+v", report.Benchmarks)
	}
}

func TestParseEmptyInput(t *testing.T) {
	var out bytes.Buffer
	if _, err := run(strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte(`"benchmarks": []`)) {
		t.Fatalf("empty input should emit an empty benchmarks array: %s", out.String())
	}
}

func TestCompareBaseline(t *testing.T) {
	baseline := `{"benchmarks": [
		{"name": "BenchmarkA-8", "runs": 100, "ns_per_op": 1000},
		{"name": "BenchmarkB-8", "runs": 100, "ns_per_op": 1000}
	]}`
	path := t.TempDir() + "/base.json"
	if err := os.WriteFile(path, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	report := &benchReport{Benchmarks: []benchResult{
		{Name: "BenchmarkA-8", NsPerOp: 2000}, // 2x: regression
		{Name: "BenchmarkB-8", NsPerOp: 1100}, // 1.1x: within threshold
		{Name: "BenchmarkNew-8", NsPerOp: 99}, // no baseline: skipped
	}}
	var out bytes.Buffer
	compareBaseline(&out, report, path, 1.25)
	got := out.String()
	if !strings.Contains(got, "::warning::bench regression: BenchmarkA-8") {
		t.Errorf("missing regression warning for BenchmarkA:\n%s", got)
	}
	if strings.Contains(got, "BenchmarkB-8") || strings.Contains(got, "BenchmarkNew-8") {
		t.Errorf("warned about non-regressed benchmarks:\n%s", got)
	}
}

// TestCompareBaselineAcrossCoreCounts checks runs pair with a baseline
// recorded at another GOMAXPROCS (or at 1, which prints no suffix).
func TestCompareBaselineAcrossCoreCounts(t *testing.T) {
	baseline := `{"benchmarks": [
		{"name": "BenchmarkA/workers=2-2", "ns_per_op": 1000},
		{"name": "BenchmarkB", "ns_per_op": 1000},
		{"name": "BenchmarkC/mode=x-y", "ns_per_op": 1000}
	]}`
	path := t.TempDir() + "/base.json"
	if err := os.WriteFile(path, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	report := &benchReport{Benchmarks: []benchResult{
		{Name: "BenchmarkA/workers=2-4", NsPerOp: 2000},
		{Name: "BenchmarkB-4", NsPerOp: 3000},
		{Name: "BenchmarkC/mode=x-y-4", NsPerOp: 4000},
	}}
	var out bytes.Buffer
	compareBaseline(&out, report, path, 1.25)
	for _, name := range []string{"BenchmarkA/workers=2-4", "BenchmarkB-4", "BenchmarkC/mode=x-y-4"} {
		if !strings.Contains(out.String(), "::warning::bench regression: "+name+" ") {
			t.Errorf("no regression warning for %s:\n%s", name, out.String())
		}
	}
}

func TestCompareBaselineClean(t *testing.T) {
	path := t.TempDir() + "/base.json"
	if err := os.WriteFile(path, []byte(`{"benchmarks": [{"name": "BenchmarkA-8", "ns_per_op": 1000}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	report := &benchReport{Benchmarks: []benchResult{{Name: "BenchmarkA-8", NsPerOp: 900}}}
	var out bytes.Buffer
	compareBaseline(&out, report, path, 1.25)
	if strings.Contains(out.String(), "::warning::") {
		t.Errorf("clean run produced a warning:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "within") {
		t.Errorf("clean run should summarize the comparison:\n%s", out.String())
	}
}

func TestCompareBaselineMissingFileIsSoft(t *testing.T) {
	var out bytes.Buffer
	compareBaseline(&out, &benchReport{}, "/nonexistent/base.json", 1.25)
	if !strings.Contains(out.String(), "skipping comparison") {
		t.Errorf("missing baseline should soft-skip:\n%s", out.String())
	}
}

func TestLoadgenPassThroughAndDiff(t *testing.T) {
	base := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(base, []byte(`{"mode":"open","requests":100,"latency":{"p50_ms":10,"p99_ms":40}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader(`{"mode":"open","requests":100,"latency":{"p50_ms":10,"p99_ms":200}}`)
	var out, diag bytes.Buffer
	if err := runLoadgen(in, &out, &diag, base, 1.5); err != nil {
		t.Fatalf("runLoadgen: %v", err)
	}
	rep, err := loadreport.Read(&out)
	if err != nil {
		t.Fatalf("pass-through output not a report: %v", err)
	}
	if rep.Requests != 100 {
		t.Fatalf("pass-through lost fields: %+v", rep)
	}
	if !strings.Contains(diag.String(), "::warning::") || !strings.Contains(diag.String(), "p99") {
		t.Fatalf("p99 regression not flagged: %s", diag.String())
	}
}

func TestLoadgenRejectsBenchText(t *testing.T) {
	in := strings.NewReader("goos: linux\nBenchmarkFoo-8 100 5 ns/op\n")
	if err := runLoadgen(in, &bytes.Buffer{}, &bytes.Buffer{}, "", 1.5); err == nil {
		t.Fatal("accepted bench text as a loadgen report")
	}
}
