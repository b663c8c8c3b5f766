package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/localize"
	"repro/internal/methods"
	"repro/internal/rapminer"
)

// tinyOptions keeps unit-test runtime small; the full sizes run in the
// benchmark harness and cmd/experiments.
func tinyOptions() Options {
	return Options{Seed: 2022, SqueezeCases: 2, RAPMDCases: 4}
}

func TestPaperMethodsRoster(t *testing.T) {
	methods, err := PaperMethods()
	if err != nil {
		t.Fatalf("PaperMethods: %v", err)
	}
	if len(methods) != len(MethodNames) {
		t.Fatalf("got %d methods, want %d", len(methods), len(MethodNames))
	}
	for i, m := range methods {
		if m.Name() != MethodNames[i] {
			t.Errorf("method %d = %q, want %q", i, m.Name(), MethodNames[i])
		}
	}
	all, err := AllMethods()
	if err != nil {
		t.Fatalf("AllMethods: %v", err)
	}
	if len(all) != len(methods)+2 || all[len(all)-2].Name() != "HotSpot" || all[len(all)-1].Name() != "RiskLoc" {
		t.Errorf("AllMethods roster wrong")
	}
}

func TestRunSqueezeEvalShape(t *testing.T) {
	rows, err := RunSqueezeEval(tinyOptions())
	if err != nil {
		t.Fatalf("RunSqueezeEval: %v", err)
	}
	if len(rows) != 9 {
		t.Fatalf("got %d rows, want 9", len(rows))
	}
	for _, r := range rows {
		for _, m := range MethodNames {
			f1, ok := r.F1[m]
			if !ok {
				t.Fatalf("group %s missing method %s", r.Group, m)
			}
			if f1 < 0 || f1 > 1 {
				t.Errorf("group %s %s F1 = %v", r.Group, m, f1)
			}
			if r.MeanSeconds[m] < 0 {
				t.Errorf("group %s %s negative time", r.Group, m)
			}
		}
	}
	// Headline shape: RAPMiner is strong on the 1-D groups.
	for _, r := range rows[:3] {
		if r.F1["RAPMiner"] < 0.8 {
			t.Errorf("RAPMiner F1 on %s = %v, want >= 0.8", r.Group, r.F1["RAPMiner"])
		}
	}
}

func TestRunSqueezeEvalDeterministic(t *testing.T) {
	a, err := RunSqueezeEval(tinyOptions())
	if err != nil {
		t.Fatalf("RunSqueezeEval: %v", err)
	}
	b, err := RunSqueezeEval(tinyOptions())
	if err != nil {
		t.Fatalf("RunSqueezeEval: %v", err)
	}
	for i := range a {
		for _, m := range MethodNames {
			if a[i].F1[m] != b[i].F1[m] {
				t.Fatalf("F1 not deterministic for %s on %s", m, a[i].Group)
			}
		}
	}
}

func TestRunRAPMDEvalShape(t *testing.T) {
	rows, err := RunRAPMDEval(tinyOptions())
	if err != nil {
		t.Fatalf("RunRAPMDEval: %v", err)
	}
	if len(rows) != len(MethodNames) {
		t.Fatalf("got %d rows, want %d", len(rows), len(MethodNames))
	}
	for _, r := range rows {
		for _, k := range RCKs {
			v := r.RC[k]
			if v < 0 || v > 1 {
				t.Errorf("%s RC@%d = %v", r.Method, k, v)
			}
		}
		// RC@k must be monotone in k.
		if r.RC[3] > r.RC[4]+1e-12 || r.RC[4] > r.RC[5]+1e-12 {
			t.Errorf("%s RC not monotone: %v", r.Method, r.RC)
		}
	}
}

func TestRunFig10Sweeps(t *testing.T) {
	a, err := RunFig10a(tinyOptions())
	if err != nil {
		t.Fatalf("RunFig10a: %v", err)
	}
	if len(a) != len(TCPGrid) {
		t.Fatalf("fig10a points = %d, want %d", len(a), len(TCPGrid))
	}
	b, err := RunFig10b(tinyOptions())
	if err != nil {
		t.Fatalf("RunFig10b: %v", err)
	}
	if len(b) != len(TConfGrid) {
		t.Fatalf("fig10b points = %d, want %d", len(b), len(TConfGrid))
	}
	for _, p := range append(a, b...) {
		if p.RC3 < 0 || p.RC3 > 1 {
			t.Errorf("RC3 = %v at %v", p.RC3, p.Threshold)
		}
	}
}

func TestRunTable4(t *testing.T) {
	rows, emp, err := RunTable4(tinyOptions())
	if err != nil {
		t.Fatalf("RunTable4: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	wantBounds := []float64{0.5, 0.75, 0.875, 0.9375, 0.96875}
	for i, r := range rows {
		if r.K != i+1 {
			t.Errorf("row %d K = %d", i, r.K)
		}
		if r.LowerBound != wantBounds[i] {
			t.Errorf("k=%d bound = %v, want %v", r.K, r.LowerBound, wantBounds[i])
		}
	}
	total := 0
	for _, n := range emp.DeletedHistogram {
		total += n
	}
	if total != tinyOptions().RAPMDCases {
		t.Errorf("histogram covers %d cases, want %d", total, tinyOptions().RAPMDCases)
	}
}

func TestRunTable6(t *testing.T) {
	res, err := RunTable6(tinyOptions())
	if err != nil {
		t.Fatalf("RunTable6: %v", err)
	}
	if res.With.RC3 < 0 || res.With.RC3 > 1 || res.Without.RC3 < 0 || res.Without.RC3 > 1 {
		t.Errorf("RC3 out of range: %+v", res)
	}
	if res.With.MeanSeconds <= 0 || res.Without.MeanSeconds <= 0 {
		t.Errorf("non-positive timings: %+v", res)
	}
	// Deletion must never make the search slower in expectation on the
	// same corpus (fewer cuboids are searched); allow small noise.
	if res.With.MeanSeconds > res.Without.MeanSeconds*1.5 {
		t.Errorf("deletion slower than full search: %v vs %v",
			res.With.MeanSeconds, res.Without.MeanSeconds)
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := Options{Seed: 1, SqueezeCases: 0, RAPMDCases: 1}
	if _, err := RunSqueezeEval(bad); err == nil {
		t.Error("SqueezeCases 0 accepted")
	}
	bad2 := Options{Seed: 1, SqueezeCases: 1, RAPMDCases: 0}
	if _, err := RunRAPMDEval(bad2); err == nil {
		t.Error("RAPMDCases 0 accepted")
	}
}

func TestFormatters(t *testing.T) {
	opt := tinyOptions()
	sq, err := RunSqueezeEval(opt)
	if err != nil {
		t.Fatalf("RunSqueezeEval: %v", err)
	}
	rm, err := RunRAPMDEval(opt)
	if err != nil {
		t.Fatalf("RunRAPMDEval: %v", err)
	}
	t4rows, emp, err := RunTable4(opt)
	if err != nil {
		t.Fatalf("RunTable4: %v", err)
	}
	t6, err := RunTable6(opt)
	if err != nil {
		t.Fatalf("RunTable6: %v", err)
	}
	f10a, err := RunFig10a(opt)
	if err != nil {
		t.Fatalf("RunFig10a: %v", err)
	}

	for name, s := range map[string]string{
		"fig8a":  FormatFig8a(sq),
		"fig9a":  FormatFig9a(sq),
		"fig8b":  FormatFig8b(rm),
		"fig9b":  FormatFig9b(rm),
		"fig10":  FormatFig10(f10a, "t_CP"),
		"table4": FormatTable4(t4rows, emp),
		"table6": FormatTable6(t6),
	} {
		if len(s) == 0 {
			t.Errorf("%s: empty output", name)
		}
		if !strings.Contains(s, "\n") {
			t.Errorf("%s: single-line output", name)
		}
	}
	if !strings.Contains(FormatFig8a(sq), "RAPMiner") {
		t.Error("fig8a missing RAPMiner column")
	}
	if !strings.Contains(FormatTable6(t6), "Efficiency improvement") {
		t.Error("table6 missing summary line")
	}
}

func TestRunNoiseStudy(t *testing.T) {
	rows, err := RunNoiseStudy(tinyOptions())
	if err != nil {
		t.Fatalf("RunNoiseStudy: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 noise levels", len(rows))
	}
	for _, r := range rows {
		for _, m := range MethodNames {
			f1, ok := r.F1[m]
			if !ok {
				t.Fatalf("level %s missing method %s", r.Level, m)
			}
			if f1 < 0 || f1 > 1 {
				t.Errorf("level %s %s F1 = %v", r.Level, m, f1)
			}
		}
	}
	out := FormatNoiseStudy(rows)
	if !strings.Contains(out, "B3") || !strings.Contains(out, "RAPMiner") {
		t.Errorf("FormatNoiseStudy output incomplete:\n%s", out)
	}
}

func TestRunDetectionStudy(t *testing.T) {
	points, err := RunDetectionStudy(tinyOptions())
	if err != nil {
		t.Fatalf("RunDetectionStudy: %v", err)
	}
	if len(points) != len(DetectionGrid) {
		t.Fatalf("got %d points, want %d", len(points), len(DetectionGrid))
	}
	var exactIdx int
	for i, p := range points {
		if p.RC3 < 0 || p.RC3 > 1 || p.LabeledAnomalous < 0 || p.LabeledAnomalous > 1 {
			t.Errorf("point %v out of range", p)
		}
		if p.Threshold == 0.095 {
			exactIdx = i
		}
	}
	// The exactly-separating threshold labels far fewer leaves than the
	// over-sensitive one.
	if points[exactIdx].LabeledAnomalous >= points[0].LabeledAnomalous {
		t.Errorf("labeling fraction not decreasing: %v vs %v",
			points[exactIdx].LabeledAnomalous, points[0].LabeledAnomalous)
	}
	out := FormatDetectionStudy(points)
	if !strings.Contains(out, "detection quality") {
		t.Errorf("formatter output incomplete:\n%s", out)
	}
}

func TestRunOverlapStudy(t *testing.T) {
	rows, err := RunOverlapStudy(tinyOptions())
	if err != nil {
		t.Fatalf("RunOverlapStudy: %v", err)
	}
	if len(rows) != len(MethodNames) {
		t.Fatalf("got %d rows, want %d", len(rows), len(MethodNames))
	}
	for _, r := range rows {
		if r.RC3 < 0 || r.RC3 > 1 || r.MeanOverlap < 0 || r.MeanOverlap > 1 {
			t.Errorf("%s metrics out of range: %+v", r.Method, r)
		}
		// Overlap gives partial credit for exact matches too, so it can
		// only round up relative to exact-match recall... but a truth
		// caught at rank > 3 counts for neither, and a rank <= 3 exact
		// match is overlap 1, so overlap >= RC3 minus float noise.
		if r.MeanOverlap < r.RC3-1e-9 {
			t.Errorf("%s overlap %v below exact recall %v", r.Method, r.MeanOverlap, r.RC3)
		}
	}
	if !strings.Contains(FormatOverlapStudy(rows), "scope overlap") {
		t.Error("formatter output incomplete")
	}
}

func TestRunDerivedStudy(t *testing.T) {
	rows, err := RunDerivedStudy(tinyOptions())
	if err != nil {
		t.Fatalf("RunDerivedStudy: %v", err)
	}
	if len(rows) != len(MethodNames) {
		t.Fatalf("got %d rows, want %d", len(rows), len(MethodNames))
	}
	for _, r := range rows {
		if r.Fundamental < 0 || r.Fundamental > 1 || r.Derived < 0 || r.Derived > 1 {
			t.Errorf("%s metrics out of range: %+v", r.Method, r)
		}
	}
	if !strings.Contains(FormatDerivedStudy(rows), "hit ratio") {
		t.Error("formatter output incomplete")
	}
}

func TestRunReportAndMarkdown(t *testing.T) {
	rep, err := RunReport(tinyOptions())
	if err != nil {
		t.Fatalf("RunReport: %v", err)
	}
	var b strings.Builder
	if err := rep.WriteMarkdown(&b, time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)); err != nil {
		t.Fatalf("WriteMarkdown: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# RAPMiner reproduction report",
		"Fig. 8(a)", "Fig. 8(b)", "Fig. 10", "Table IV", "Table VI",
		"Extension studies", "RAPMiner", "| (1,1) |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q", want)
		}
	}
	// Deterministic given a fixed timestamp.
	var b2 strings.Builder
	if err := rep.WriteMarkdown(&b2, time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)); err != nil {
		t.Fatal(err)
	}
	if b.String() != b2.String() {
		t.Error("markdown rendering not deterministic")
	}
}

// PaperMethods constructs the five localizers compared in Fig. 8 and
// Fig. 9 with their default configurations.
func PaperMethods() ([]localize.Localizer, error) {
	return methods.Build(rapminer.DefaultConfig(), paperMethods()...)
}
