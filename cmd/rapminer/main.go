// Command rapminer localizes root anomaly patterns in a CSV snapshot of
// most fine-grained attribute combinations (the Table III layout: attribute
// columns, then actual,forecast[,anomalous]).
//
// Usage:
//
//	rapminer -input snapshot.csv [-k 3] [-tcp 0.0005] [-tconf 0.8]
//	         [-method adtributor|idice|fpgrowth|squeeze|rapminer|hotspot|riskloc|ensemble|all]
//	         [-detect-threshold 0.095]
//
// A method name builds the same localizer as the HTTP service's ?method=
// value; -tcp and -tconf configure RAPMiner, alone or as the ensemble's
// member. -method all runs every method, RAPMiner first (so -dot
// highlights RAPMiner's patterns).
//
// When the CSV has no "anomalous" column (or -relabel is set) the leaves
// are labeled with the relative-deviation detector first.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/anomaly"
	"repro/internal/kpi"
	"repro/internal/lattice"
	"repro/internal/localize"
	"repro/internal/methods"
	"repro/internal/rapminer"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rapminer:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("rapminer", flag.ContinueOnError)
	var (
		input     = fs.String("input", "", "CSV snapshot file (required; '-' for stdin)")
		k         = fs.Int("k", 3, "number of root anomaly patterns to return")
		tcp       = fs.Float64("tcp", 0.0005, "t_CP: classification power deletion threshold (fraction; the paper quotes percentages)")
		tconf     = fs.Float64("tconf", 0.8, "t_conf: anomaly confidence threshold")
		method    = fs.String("method", "rapminer", "localizer: "+strings.Join(methods.Keys(), ", ")+", or all")
		relabel   = fs.Bool("relabel", false, "ignore the anomalous column and re-run the detector")
		threshold = fs.Float64("detect-threshold", 0.095, "relative-deviation detection threshold")
		dotPath   = fs.String("dot", "", "write the Fig. 7-style combination DAG (Graphviz DOT) to this file")
		verbose   = fs.Bool("verbose", false, "print RAPMiner search diagnostics (attribute CPs, cuboids visited, early stop)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *input == "" {
		return fmt.Errorf("missing -input (see -h)")
	}

	var reader io.Reader = os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer f.Close()
		reader = f
	}
	snap, err := kpi.ReadCSV(reader, nil)
	if err != nil {
		return err
	}

	if *relabel || snap.NumAnomalous() == 0 {
		det := anomaly.RelativeDeviation{Threshold: *threshold, Eps: 1e-9}
		n := anomaly.Label(snap, det)
		fmt.Fprintf(w, "detector %s labeled %d of %d leaves anomalous\n", det.Name(), n, snap.Len())
	}

	cfg := rapminer.DefaultConfig()
	cfg.TCP, cfg.TConf = *tcp, *tconf
	localizers, err := selectMethods(*method, cfg)
	if err != nil {
		return err
	}
	var firstResult []kpi.Combination
	for _, m := range localizers {
		var (
			res localize.Result
			err error
		)
		if miner, ok := m.(*rapminer.Miner); ok && *verbose {
			var diag rapminer.Diagnostics
			res, diag, err = miner.LocalizeWithDiagnosticsContext(context.Background(), snap, *k)
			if err == nil {
				printDiagnostics(w, snap.Schema, diag)
			}
		} else {
			res, err = m.Localize(snap, *k)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", m.Name(), err)
		}
		if firstResult == nil {
			firstResult = res.TopK(*k)
		}
		fmt.Fprintf(w, "\n%s root anomaly patterns (top %d):\n", m.Name(), *k)
		if len(res.Patterns) == 0 {
			fmt.Fprintln(w, "  (none found)")
			continue
		}
		fmt.Fprint(w, res.Format(snap.Schema))
	}
	if *dotPath != "" {
		if err := writeDOT(*dotPath, snap, firstResult, *tconf); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote combination DAG to %s\n", *dotPath)
	}
	return nil
}

// printDiagnostics reports the two-stage search statistics.
func printDiagnostics(w io.Writer, schema *kpi.Schema, diag rapminer.Diagnostics) {
	fmt.Fprintln(w, "\nRAPMiner diagnostics:")
	for _, cp := range diag.CPs {
		fmt.Fprintf(w, "  CP(%s) = %.5f\n", schema.Attribute(cp.Attr).Name, cp.CP)
	}
	var kept []string
	for _, a := range diag.KeptAttributes {
		kept = append(kept, schema.Attribute(a).Name)
	}
	fmt.Fprintf(w, "  attributes kept: %s\n", strings.Join(kept, ", "))
	fmt.Fprintf(w, "  cuboids: %d total, %d after deletion, %d visited\n",
		diag.CuboidsTotal, diag.CuboidsSearchable, diag.CuboidsVisited)
	fmt.Fprintf(w, "  combinations scanned: %d, candidates: %d, early stop: %v\n",
		diag.CombinationsScanned, diag.Candidates, diag.EarlyStopped)
}

// writeDOT renders the combination DAG of the snapshot with the first
// method's localized patterns highlighted.
func writeDOT(path string, snap *kpi.Snapshot, highlight []kpi.Combination, tconf float64) error {
	attrs := make([]int, snap.Schema.NumAttributes())
	for i := range attrs {
		attrs[i] = i
	}
	maxLayer := len(attrs)
	if maxLayer > 3 {
		maxLayer = 3
	}
	// Restrict to the anomalous sub-DAG and shrink the depth until the
	// graph fits the renderer's node budget.
	var (
		g   *lattice.Graph
		err error
	)
	for ; maxLayer >= 1; maxLayer-- {
		g, err = lattice.BuildAnomalous(snap, attrs, maxLayer)
		if err == nil {
			break
		}
	}
	if err != nil {
		return fmt.Errorf("dot: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := g.WriteDOT(f, highlight, tconf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selectMethods builds the named method with cfg, or for "all" every
// registered method with RAPMiner first.
func selectMethods(name string, cfg rapminer.Config) ([]localize.Localizer, error) {
	if strings.EqualFold(name, "all") {
		rm, _ := methods.Lookup("rapminer")
		all := slices.DeleteFunc(methods.All(), func(m methods.Method) bool { return m.Key == rm.Key })
		return methods.Build(cfg, append([]methods.Method{rm}, all...)...)
	}
	m, ok := methods.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown method %q", name)
	}
	return methods.Build(cfg, m)
}
