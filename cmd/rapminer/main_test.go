package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rapminer"
)

const sampleCSV = `Location,AccessType,Website,actual,forecast
L1,Wireless,Site1,40,100
L1,Wireless,Site2,100,100
L1,Fixed,Site1,38,95
L1,Fixed,Site2,101,100
L2,Wireless,Site1,99,100
L2,Wireless,Site2,98,100
L2,Fixed,Site1,100,100
L2,Fixed,Site2,102,100
`

func writeSample(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snap.csv")
	if err := os.WriteFile(path, []byte(sampleCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunLocalizesCSV(t *testing.T) {
	path := writeSample(t)
	var out strings.Builder
	if err := run(&out, []string{"-input", path, "-k", "2"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "labeled 2 of 8 leaves") {
		t.Errorf("detector line missing:\n%s", got)
	}
	if !strings.Contains(got, "(L1, *, Site1)") {
		t.Errorf("RAP missing from output:\n%s", got)
	}
}

func TestRunAllMethods(t *testing.T) {
	path := writeSample(t)
	var out strings.Builder
	if err := run(&out, []string{"-input", path, "-method", "all", "-k", "1"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, name := range []string{"RAPMiner", "Adtributor", "iDice", "FP-growth", "Squeeze", "HotSpot", "RiskLoc", "Ensemble"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("method %s missing from output", name)
		}
	}
}

func TestRunWritesDOT(t *testing.T) {
	path := writeSample(t)
	dot := filepath.Join(t.TempDir(), "g.dot")
	var out strings.Builder
	if err := run(&out, []string{"-input", path, "-dot", dot}); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatalf("read dot: %v", err)
	}
	if !strings.HasPrefix(string(data), "digraph rap {") {
		t.Errorf("dot file malformed: %.60s", data)
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(&out, nil); err == nil {
		t.Error("missing -input accepted")
	}
	if err := run(&out, []string{"-input", "/nonexistent.csv"}); err == nil {
		t.Error("missing file accepted")
	}
	path := writeSample(t)
	if err := run(&out, []string{"-input", path, "-method", "bogus"}); err == nil {
		t.Error("unknown method accepted")
	}
	if err := run(&out, []string{"-input", path, "-tcp", "2"}); err == nil {
		t.Error("invalid t_CP accepted")
	}
}

func TestSelectMethodsRoster(t *testing.T) {
	ms, err := selectMethods("all", rapminer.Config{TCP: 0.01, TConf: 0.8})
	if err != nil {
		t.Fatalf("selectMethods: %v", err)
	}
	if len(ms) != 8 {
		t.Errorf("all roster = %d methods, want 8", len(ms))
	}
	if ms[0].Name() != "RAPMiner" {
		t.Errorf("all roster starts with %s, want RAPMiner", ms[0].Name())
	}
	one, err := selectMethods("Squeeze", rapminer.Config{TCP: 0.01, TConf: 0.8})
	if err != nil || len(one) != 1 || one[0].Name() != "Squeeze" {
		t.Errorf("case-insensitive single method failed: %v %v", one, err)
	}
}

func TestRunVerboseDiagnostics(t *testing.T) {
	path := writeSample(t)
	var out strings.Builder
	if err := run(&out, []string{"-input", path, "-verbose"}); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"RAPMiner diagnostics:", "CP(Location)", "cuboids:", "early stop:"} {
		if !strings.Contains(got, want) {
			t.Errorf("verbose output missing %q:\n%s", want, got)
		}
	}
}
