package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gendata"
	"repro/internal/inject"
	"repro/internal/methods"
	"repro/internal/rapminer"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.txt from the current code")

const (
	ledgerPath = "testdata/ledger.txt"
	ledgerSeed = 2022
	ledgerK    = 5
	// ledgerRAPMDCases is small because every RAPMD case is a ~10k-leaf
	// CDN snapshot.
	ledgerRAPMDCases = 3
)

// ledgerCase is one named snapshot of the results ledger's corpus.
// HotSpot's MCTS costs about 0.3 s per case, several times every other
// method together, so it runs on the first case of each corpus family
// only, which keeps the test near 2.5 s.
type ledgerCase struct {
	name    string
	c       inject.Case
	hotspot bool
}

// ledgerCorpus is the ledger's fixed corpus: a few RAPMD cases, one
// Squeeze-B0 case per (dimension, #RAPs) group, and one (2,2) case under
// each robustness scenario.
func ledgerCorpus(t *testing.T) []ledgerCase {
	t.Helper()
	var out []ledgerCase
	rapmd, err := gendata.RAPMD(ledgerSeed, ledgerRAPMDCases)
	if err != nil {
		t.Fatalf("RAPMD: %v", err)
	}
	for i, c := range rapmd.Cases {
		out = append(out, ledgerCase{name: fmt.Sprintf("rapmd/%d", i), c: c, hotspot: i == 0})
	}
	for gi, group := range gendata.SqueezeGroups() {
		corpus, err := gendata.SqueezeB0(ledgerSeed+int64(gi), group, 1)
		if err != nil {
			t.Fatalf("SqueezeB0 %s: %v", group, err)
		}
		out = append(out, ledgerCase{name: "squeeze-b0/" + group.String(), c: corpus.Cases[0], hotspot: gi == 0})
	}
	for si, sc := range DefaultRobustnessScenarios() {
		corpus, err := gendata.SqueezeRobust(ledgerSeed, gendata.SqueezeGroup{Dim: 2, NumRAPs: 2}, 1, sc.Noise)
		if err != nil {
			t.Fatalf("SqueezeRobust %s: %v", sc.Name, err)
		}
		out = append(out, ledgerCase{name: "noise/" + sc.Name, c: corpus.Cases[0], hotspot: si == 0})
	}
	return out
}

// buildLedger runs the eight served methods (the five paper methods,
// HotSpot, RiskLoc and the ensemble) over the ledger corpus and renders
// every ranked pattern with its score at full float64 precision.
func buildLedger(t *testing.T) []byte {
	t.Helper()
	localizers, err := methods.Build(rapminer.DefaultConfig(), methods.All()...)
	if err != nil {
		t.Fatal(err)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "# Results ledger: seed %d, k = %d. Regenerate with go test ./internal/experiments -run TestResultsLedger -update\n", ledgerSeed, ledgerK)
	for _, lc := range ledgerCorpus(t) {
		schema := lc.c.Snapshot.Schema
		raps := make([]string, len(lc.c.RAPs))
		for i, r := range lc.c.RAPs {
			raps[i] = r.Format(schema)
		}
		fmt.Fprintf(&b, "case %s leaves=%d anomalous=%d raps=%s\n",
			lc.name, lc.c.Snapshot.Len(), lc.c.Snapshot.NumAnomalous(), strings.Join(raps, " "))
		for _, m := range localizers {
			if m.Name() == "HotSpot" && !lc.hotspot {
				continue
			}
			res, err := m.Localize(lc.c.Snapshot, ledgerK)
			if err != nil {
				fmt.Fprintf(&b, "  %s error: %v\n", m.Name(), err)
				continue
			}
			fmt.Fprintf(&b, "  %s %d\n", m.Name(), len(res.Patterns))
			for i, p := range res.Patterns {
				fmt.Fprintf(&b, "    %d %s %.17g\n", i+1, p.Combo.Format(schema), p.Score)
			}
		}
	}
	return b.Bytes()
}

// TestResultsLedger pins every served method's ranked output on a fixed
// corpus. A change to any localizer's scoring or tie-breaking moves a line
// of testdata/ledger.txt; regenerate it with -update only when the move is
// intended, and say which entries moved and why.
func TestResultsLedger(t *testing.T) {
	got := buildLedger(t)
	if *updateLedger {
		if err := os.MkdirAll(filepath.Dir(ledgerPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatalf("read ledger (generate it with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	shown := 0
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g == w {
			continue
		}
		t.Errorf("ledger line %d:\n  got  %q\n  want %q", i+1, g, w)
		if shown++; shown == 10 {
			t.Errorf("... further differences elided")
			break
		}
	}
}
