// Command bench is the repository's benchmark. It drives the program from
// outside — cmd/serve over loopback HTTP, and the localizers' public calls
// in a re-executed child process — across five workloads, checks every
// reply against an in-process reference, and prints the end-to-end
// metrics of each workload, then the per-layer metrics of a separate
// traced run.
//
//	bash bench/run.sh -seed 1 -out DIR                 all five workloads, then the traced runs
//	bash bench/run.sh -workload NAME -seed N -seconds S -trace 0|1
//	bash bench/run.sh -compare A.json B.json           compare two results files
//
// run.sh builds the benchmark and the server into .bench_build at the
// repository root; `go -C bench run . <flags>` works too. With -workload
// the last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}, holding the end-to-end metrics of
// BENCHMARK.json with -trace 0 and its per-layer metrics with -trace 1.
// The command exits non-zero when an op failed.
// bench/README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/obs"
)

func main() {
	// The program's in-process log lines (the traced run's incident updates)
	// are formatted as in the server but not printed.
	obs.ConfigureLogging(io.Discard, slog.LevelInfo, false)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// options configure one measurement.
type options struct {
	seed    int64
	seconds float64 // 0 = the workload's default
	trace   bool
	out     string
	launch  launcher
	start   engineStarter
}

func (o options) length(w workload) float64 {
	if o.seconds > 0 {
		return o.seconds
	}
	return w.seconds
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "", "run one workload and end with a JSON line (default: all five, then the traced runs)")
		seed      = fs.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds   = fs.Float64("seconds", 0, "measured length of one run (0 = the workload's default)")
		traceFlag = fs.Int("trace", 0, "with -workload: 1 adds the traced run and reports the per-layer metrics")
		out       = fs.String("out", "", "directory for results.json and spans-<workload>.json")
		compare   = fs.Bool("compare", false, "compare two results files: -compare A.json B.json")
		root      = fs.String("root", "", "repository root (default: . or .., whichever holds cmd/serve)")
		child     = fs.String("child", "", "internal: run as the engine child of the named workload")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace %d, want 0 or 1", *traceFlag)
	}
	if *child != "" {
		w, err := findWorkload(*child)
		if err != nil {
			return err
		}
		return childMain(w, *seed, *seconds, *traceFlag == 1, *out)
	}
	dir, err := repoRoot(*root)
	if err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare wants two results files")
		}
		return compareFiles(stdout, filepath.Join(dir, "BENCHMARK.json"), fs.Arg(0), fs.Arg(1))
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}
	build := filepath.Join(dir, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	bin, err := buildServe(dir, build)
	if err != nil {
		return err
	}
	o := options{seed: *seed, seconds: *seconds, out: *out, launch: serveLauncher(bin), start: execEngine}
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		o.trace = *traceFlag == 1
		return runOne(stdout, w, o)
	}
	return runAll(stdout, o)
}

// repoRoot finds the repository the benchmark measures.
func repoRoot(root string) (string, error) {
	candidates := []string{root}
	if root == "" {
		candidates = []string{".", ".."}
	}
	for _, c := range candidates {
		if _, err := os.Stat(filepath.Join(c, "cmd", "serve")); err == nil {
			return filepath.Abs(c)
		}
	}
	return "", fmt.Errorf("no repository with cmd/serve at %v", candidates)
}

// runOne measures one workload, prints every metric, and ends with the
// JSON line.
func runOne(stdout io.Writer, w workload, o options) error {
	res, replay, err := measure(w, o)
	if err != nil {
		return err
	}
	if o.trace {
		if err := replay(); err != nil {
			return err
		}
	}
	printResult(stdout, res)
	line, err := jsonLine(res, o.trace)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return verdict(res)
}

// jsonLine is the run's machine-readable summary: the end-to-end metrics,
// or with trace the per-layer ones, each with its unit.
func jsonLine(res *result, trace bool) ([]byte, error) {
	defs, values := endToEnd, res.EndToEnd
	if trace {
		defs, values = perLayer, res.PerLayer
	}
	metrics := make(map[string]any)
	for _, d := range defs {
		// fail_share is 0 on every good run; the line carries it as "failed".
		if d.name != "fail_share" {
			metrics[d.name] = map[string]any{"value": values[d.name], "unit": d.unit}
		}
	}
	return json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
}

// runAll measures the five workloads with tracing off, then runs each
// workload's traced replay, and writes the results file.
func runAll(stdout io.Writer, o options) error {
	o.trace = true // engine children trace after their measured loop
	var (
		results []*result
		replays []func() error
	)
	for _, w := range workloads {
		res, replay, err := measure(w, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		results, replays = append(results, res), append(replays, replay)
	}
	var errs []error
	for i, res := range results {
		if err := replays[i](); err != nil {
			return fmt.Errorf("%s: traced run: %w", res.Workload, err)
		}
		printResult(stdout, res)
		errs = append(errs, verdict(res))
	}
	if o.out != "" {
		raw, err := json.MarshalIndent(resultsFile{Machine: thisMachine(), Results: results}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(o.out, "results.json"), append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	return errors.Join(errs...)
}

// verdict is the run's exit status: any failed op fails the run.
func verdict(res *result) error {
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed", res.Workload, res.Failed, res.Attempted)
	}
	return nil
}

func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "%s  seed %d  %.0f s  %d ops attempted, %d failed, %d latency samples\n",
		res.Workload, res.Seed, res.Seconds, res.Attempted, res.Failed, res.Samples)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, res.EndToEnd[d.name], d.unit)
	}
	if !res.Traced {
		return
	}
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, res.PerLayer[d.name], d.unit)
	}
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Machine machine   `json:"machine"`
	Results []*result `json:"results"`
}

type machine struct {
	CPU   string `json:"cpu"`
	NProc int    `json:"nproc"`
	Go    string `json:"go"`
}

func thisMachine() machine {
	m := machine{NProc: runtime.NumCPU(), Go: runtime.Version()}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}
