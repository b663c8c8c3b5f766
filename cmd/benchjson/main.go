// Command benchjson converts `go test -bench` text output into a JSON
// document, so CI can archive benchmark runs as machine-readable artifacts
// and trend them across commits.
//
//	go test -bench=Search -benchmem | benchjson > bench.json
//
// The output carries the run's environment header (goos, goarch, pkg, cpu)
// and one record per benchmark result line:
//
//	{
//	  "goos": "linux",
//	  "benchmarks": [
//	    {"name": "BenchmarkSearchParallel/workers=4-8", "runs": 500,
//	     "ns_per_op": 1234.5, "bytes_per_op": 756223, "allocs_per_op": 9453}
//	  ]
//	}
//
// Lines that are not benchmark results (test output, PASS/FAIL, timing)
// are ignored, so piping a whole `go test` transcript through is fine.
//
// With -baseline, the run is additionally diffed against a previously
// archived report:
//
//	go test -bench=. -benchmem | benchjson -baseline BENCH_pr5.json > new.json
//
// Benchmarks whose ns/op regressed past -warn-threshold (a ratio; default
// 1.25) are reported on stderr as GitHub workflow `::warning::` lines. The
// diff is advisory — shared CI runners are too noisy for a hard gate — so
// regressions never change the exit status.
//
// With -loadgen, stdin is a cmd/loadgen JSON report instead of bench text:
//
//	loadgen -duration 20s -out - | benchjson -loadgen -baseline LOADGEN_pr6.json
//
// The report is echoed to stdout unchanged (so the same invocation archives
// the artifact) and its p50/p99 and error/degraded rates are diffed against
// the baseline with the same soft `::warning::` discipline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/loadreport"
)

// benchResult is one parsed benchmark line.
type benchResult struct {
	Name       string  `json:"name"`
	Runs       int64   `json:"runs"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
	AllocsOp   float64 `json:"allocs_per_op,omitempty"`
	MBPerSec   float64 `json:"mb_per_s,omitempty"`
}

// benchReport is the whole converted run.
type benchReport struct {
	GOOS       string        `json:"goos,omitempty"`
	GOARCH     string        `json:"goarch,omitempty"`
	Pkg        string        `json:"pkg,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
}

func main() {
	baseline := flag.String("baseline", "", "archived report to diff against (soft warnings)")
	threshold := flag.Float64("warn-threshold", 1.25, "warn when a diffed value exceeds baseline by this ratio")
	loadgen := flag.Bool("loadgen", false, "stdin is a cmd/loadgen JSON report, not `go test -bench` text")
	flag.Parse()
	if *loadgen {
		if err := runLoadgen(os.Stdin, os.Stdout, os.Stderr, *baseline, *threshold); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	report, err := run(os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *baseline != "" {
		compareBaseline(os.Stderr, report, *baseline, *threshold)
	}
}

// runLoadgen ingests a loadgen report, re-emits it on w (pass-through for
// artifact archiving) and diffs it against the baseline when one is given.
func runLoadgen(r io.Reader, w, diag io.Writer, baseline string, threshold float64) error {
	rep, err := loadreport.Read(r)
	if err != nil {
		return err
	}
	if err := rep.Write(w); err != nil {
		return err
	}
	if baseline != "" {
		loadreport.Compare(diag, rep, baseline, threshold)
	}
	return nil
}

func run(r io.Reader, w io.Writer) (*benchReport, error) {
	report, err := parse(r)
	if err != nil {
		return nil, err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return report, enc.Encode(report)
}

// compareBaseline diffs the run against an archived report, emitting GitHub
// `::warning::` lines for ns/op regressions past the threshold ratio.
// Benchmarks pair up by name without the -GOMAXPROCS suffix (benchName), so
// a baseline recorded on one core count diffs runs on another.
// Everything here is advisory: a missing or unreadable baseline, benchmarks
// present on only one side, and regressions all leave the exit status
// untouched, because shared-runner timings are too noisy for a hard gate.
func compareBaseline(w io.Writer, report *benchReport, path string, threshold float64) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(w, "::warning::benchjson: baseline %s unreadable (%v); skipping comparison\n", path, err)
		return
	}
	var base benchReport
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(w, "::warning::benchjson: baseline %s is not a benchjson report (%v); skipping comparison\n", path, err)
		return
	}
	byName := make(map[string]benchResult, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		byName[benchName(b.Name)] = b
	}
	regressions := 0
	for _, b := range report.Benchmarks {
		old, ok := byName[benchName(b.Name)]
		if !ok || old.NsPerOp <= 0 || b.NsPerOp <= 0 {
			continue
		}
		if ratio := b.NsPerOp / old.NsPerOp; ratio > threshold {
			regressions++
			fmt.Fprintf(w, "::warning::bench regression: %s %.0f ns/op vs baseline %.0f ns/op (%.2fx, threshold %.2fx)\n",
				b.Name, b.NsPerOp, old.NsPerOp, ratio, threshold)
		}
	}
	if regressions == 0 {
		fmt.Fprintf(w, "benchjson: %d benchmarks within %.2fx of baseline %s\n",
			len(report.Benchmarks), threshold, path)
	}
}

// benchName strips the -GOMAXPROCS suffix `go test` appends to a
// benchmark's name when GOMAXPROCS is not 1 ("BenchmarkX/workers=2-8" is
// "BenchmarkX/workers=2").
func benchName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}

// parse scans bench output, collecting the environment header and every
// result line. Unrecognized lines are skipped.
func parse(r io.Reader) (*benchReport, error) {
	report := &benchReport{Benchmarks: []benchResult{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			report.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			report.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			report.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			report.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseResult(line); ok {
				report.Benchmarks = append(report.Benchmarks, b)
			}
		}
	}
	return report, sc.Err()
}

// parseResult parses one result line:
//
//	BenchmarkName-8   500   2553914 ns/op   756223 B/op   9453 allocs/op
//
// The first two fields are the name and iteration count; the rest are
// value/unit pairs.
func parseResult(line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return benchResult{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	b := benchResult{Name: fields[0], Runs: runs}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchResult{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsOp = v
		case "MB/s":
			b.MBPerSec = v
		}
	}
	return b, true
}
