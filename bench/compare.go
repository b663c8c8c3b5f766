package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, for every workload and end-to-end metric, B's value
// as a ratio of A's and a verdict against the bound BENCHMARK.json fixes.
// fail_share, which BENCHMARK.json leaves out because it is 0 on a good
// run, regresses on any increase. The per-workload count line says how many
// of the traced runs' rapminer Diagnostics counts differ; they should not.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) error {
	var bench benchmarkFile
	var a, b resultsFile
	for path, v := range map[string]any{benchPath: &bench, aPath: &a, bPath: &b} {
		if err := readJSON(path, v); err != nil {
			return err
		}
	}
	bounds := map[string]float64{"fail_share": 0}
	for _, m := range bench.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	fmt.Fprintf(w, "%-17s %-12s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	for _, ra := range a.Results {
		var rb *result
		for _, r := range b.Results {
			if r.Workload == ra.Workload {
				rb = r
			}
		}
		if rb == nil {
			fmt.Fprintf(w, "%-17s missing from %s\n", ra.Workload, bPath)
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.EndToEnd[d.name], rb.EndToEnd[d.name]
			bound, ok := bounds[d.name]
			v := "unresolved"
			if ok && ra.ok() && rb.ok() {
				v = compareVerdict(va, vb, bound, d.better)
			}
			ratio := "-"
			if va != 0 {
				ratio = fmt.Sprintf("%.4f", vb/va)
			}
			fmt.Fprintf(w, "%-17s %-12s %14.4f %14.4f %8s %6.2f  %s\n", ra.Workload, d.name, va, vb, ratio, bound, v)
		}
		counts, differ := 0, 0
		for name, va := range ra.PerLayer {
			if strings.HasPrefix(name, "rapminer.") && !strings.HasSuffix(name, ".ms") {
				counts++
				if rb.PerLayer[name] != va {
					differ++
				}
			}
		}
		if counts > 0 {
			fmt.Fprintf(w, "%-17s rapminer Diagnostics counts: %d of %d differ\n", ra.Workload, differ, counts)
		}
	}
	return nil
}

// compareVerdict judges b against a: "regressed" when b is worse by more
// than bound as a share of a, "improved" when better by more than that,
// otherwise "within". A zero or non-finite a admits no ratio: any change
// from it counts.
func compareVerdict(a, b, bound float64, better string) string {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return "unresolved"
	}
	worse, gain := b-a, a-b
	if better == "higher" {
		worse, gain = a-b, b-a
	}
	limit := bound * math.Abs(a)
	switch {
	case worse > limit:
		return "regressed"
	case gain > limit:
		return "improved"
	default:
		return "within"
	}
}
