package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/httpapi"
	"repro/internal/kpi"
	"repro/internal/localize"
	"repro/internal/methods"
)

// labeledCSV carries its own labels, so neither the CLI nor the server runs
// a detector: two overlapping failures, (L1, *, Site1) and (*, Fixed,
// Site2), on top of quiet leaves.
const labeledCSV = `Location,AccessType,Website,actual,forecast,anomalous
L1,Wireless,Site1,40,100,true
L1,Wireless,Site2,100,100,false
L1,Fixed,Site1,38,95,true
L1,Fixed,Site2,61,100,true
L2,Wireless,Site1,99,100,false
L2,Wireless,Site2,98,100,false
L2,Fixed,Site1,100,100,false
L2,Fixed,Site2,55,100,true
L3,Wireless,Site1,101,100,false
L3,Wireless,Site2,97,100,false
L3,Fixed,Site1,100,100,false
L3,Fixed,Site2,58,100,true
`

// TestServerAndCLIAgreeOnEveryMethod runs each registered method through
// POST /v1/localize?method=<key> and through `rapminer -method <key>` on
// one labeled case: a method name must build the same localizer in both,
// so the ranked patterns and scores must match.
func TestServerAndCLIAgreeOnEveryMethod(t *testing.T) {
	const k = 3
	path := filepath.Join(t.TempDir(), "labeled.csv")
	if err := os.WriteFile(path, []byte(labeledCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := kpi.ReadCSV(strings.NewReader(labeledCSV), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(httpapi.New(httpapi.Options{}))
	t.Cleanup(srv.Close)

	for _, key := range methods.Keys() {
		t.Run(key, func(t *testing.T) {
			resp, err := http.Post(fmt.Sprintf("%s/v1/localize?method=%s&k=%d", srv.URL, key, k),
				"text/csv", strings.NewReader(labeledCSV))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("server status %d", resp.StatusCode)
			}
			var out struct {
				Method   string `json:"method"`
				Patterns []struct {
					Combination []string `json:"combination"`
					Score       float64  `json:"score"`
				} `json:"patterns"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			if len(out.Patterns) == 0 {
				t.Fatalf("server found no patterns for %s", out.Method)
			}
			var res localize.Result
			for _, p := range out.Patterns {
				combo, err := kpi.ParseCombination(snap.Schema, "("+strings.Join(p.Combination, ", ")+")")
				if err != nil {
					t.Fatal(err)
				}
				res.Patterns = append(res.Patterns, localize.ScoredPattern{Combo: combo, Score: p.Score})
			}
			want := fmt.Sprintf("\n%s root anomaly patterns (top %d):\n%s", out.Method, k, res.Format(snap.Schema))

			var cli strings.Builder
			if err := run(&cli, []string{"-input", path, "-method", key, "-k", fmt.Sprint(k)}); err != nil {
				t.Fatalf("cli: %v", err)
			}
			if cli.String() != want {
				t.Errorf("cli printed\n%s\nserver answered\n%s", cli.String(), want)
			}
		})
	}
}
