package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/gendata"
	"repro/internal/httpapi"
	"repro/internal/obs"
)

func TestMain(m *testing.M) {
	obs.ConfigureLogging(io.Discard, slog.LevelError, false)
	os.Exit(m.Run())
}

// inProc is the program under test served in-process.
type inProc struct{ srv *httptest.Server }

func (p inProc) base() string { return p.srv.URL }

func (p inProc) stats() (procStats, error) {
	st, err := readProc(os.Getpid())
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	st.gcs = int64(m.NumGC)
	return st, err
}

func (p inProc) stop() error {
	p.srv.Close()
	return nil
}

func inProcLauncher(continuous bool) (target, error) {
	h := httpapi.New(httpapi.Options{Registry: obs.NewRegistry(), Continuous: continuous})
	return inProc{httptest.NewServer(h)}, nil
}

func inProcEngine(w workload, seed int64, seconds float64, trace bool, out string) (time.Duration, *engineReport, error) {
	start := time.Now()
	var setup time.Duration
	rep, err := runEngine(w, seed, seconds, trace, out, func() { setup = time.Since(start) })
	return setup, rep, err
}

// smokeWorkload shrinks a workload to a fraction of a second of small
// inputs, reporting its median as the tail so a few dozen samples suffice.
func smokeWorkload(t *testing.T, name string) workload {
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.tail, w.seconds, w.openShare = 50, 0.4, 0.5
	switch w.kind {
	case oneshot:
		w.rate = 150
		w.rapmd = min(w.rapmd, 2)
		w.streamCases = min(w.streamCases, 2)
		w.traced = 4
	case ticks:
		w.rate, w.traced = 150, 12
		w.tickWorld = []gendata.StreamAttr{attr("region", 12), attr("isp", 10), attr("proto", 6), attr("tier", 4)}
		w.tickBodies = 20
	case engineRAPMiner:
		w.rapmd, w.sparse, w.deep, w.traced = 2, 1, 1, 8
	case engineBaselines:
		w.seconds, w.rapmd, w.traced, w.hotspot, w.wide = 1.5, 2, 2, 1, 1
	}
	w.seconds *= slowdown
	return w
}

// Each layer metric a workload exercises must come out non-zero.
var exercised = map[string][]string{
	"oneshot-cdn": {"kpi.read_json.ms", "kpi.columns.ms", "rapminer.search.ms", "explain.new.ms",
		"server.cpu_ms_per_op", "server.handler_ms", "rapminer.cuboids_visited"},
	"oneshot-small": {"kpi.read_json.ms", "anomaly.label.ms", "rapminer.search.ms", "server.handler_ms"},
	"ticks-115k": {"kpi.read_delta_json.ms", "pipeline.observe_delta.ms", "pipeline.apply.ms",
		"pipeline.localize.ms", "kpi.touched_leaves", "kpi.patched_share", "server.delta_apply_ms"},
	"engine-rapminer": {"kpi.columns.ms", "rapminer.search.cdn.ms", "rapminer.search.sparse.ms",
		"rapminer.search.deep.ms", "rapminer.rollup_share"},
	"engine-baselines": {"baseline.idice.ms", "baseline.riskloc.ms", "baseline.hotspot.ms",
		"baseline.squeeze.sparse.ms", "baseline.fpgrowth.deep.ms"},
}

// A short run of every workload against an in-process server emits every
// metric, in the JSON line of both trace settings.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	out := t.TempDir()
	for _, base := range workloads {
		w := smokeWorkload(t, base.name)
		t.Run(w.name, func(t *testing.T) {
			o := options{seed: 2, out: out, trace: true, launch: inProcLauncher, start: inProcEngine}
			res, replay, err := measure(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if err := replay(); err != nil {
				t.Fatal(err)
			}
			if !res.ok() {
				t.Fatalf("%d of %d ops failed", res.Failed, res.Attempted)
			}
			for _, trace := range []bool{false, true} {
				raw, err := jsonLine(res, trace)
				if err != nil {
					t.Fatal(err)
				}
				var line struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal(raw, &line); err != nil {
					t.Fatal(err)
				}
				defs := declared(t, trace)
				if !line.Correct || line.Attempted < 1 || len(line.Metrics) != len(defs) {
					t.Fatalf("trace %v: correct %v, attempted %d, %d metrics, want %d",
						trace, line.Correct, line.Attempted, len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("trace %v: metric %s missing or not in %s", trace, d.Name, d.Unit)
					}
				}
			}
			for _, d := range endToEnd {
				if d.name != "fail_share" && res.EndToEnd[d.name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, res.EndToEnd[d.name])
				}
			}
			for _, name := range exercised[w.name] {
				if res.PerLayer[name] <= 0 {
					t.Errorf("%s = %v, want > 0", name, res.PerLayer[name])
				}
			}
			if _, err := os.Stat(filepath.Join(out, "spans-"+w.name+".json")); err != nil {
				t.Error(err)
			}
		})
	}
}

type declaredMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// declared reads the metrics BENCHMARK.json lists for a trace setting.
func declared(t *testing.T, trace bool) []declaredMetric {
	t.Helper()
	var bench struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bench); err != nil {
		t.Fatal(err)
	}
	if trace {
		return bench.PerLayer
	}
	return bench.EndToEnd
}

// BENCHMARK.json and the benchmark's own tables name the same workloads
// and metrics.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bench.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %+v, the benchmark runs %s: %s", i, got, w.name, w.why)
		}
	}
	for _, trace := range []bool{false, true} {
		defs := endToEnd
		if trace {
			defs = perLayer
		}
		var want []declaredMetric
		for _, d := range defs {
			if d.name != "fail_share" {
				want = append(want, declaredMetric{d.name, d.unit, d.better})
			}
		}
		got := declared(t, trace)
		if len(got) != len(want) {
			t.Fatalf("trace %v: BENCHMARK.json lists %d metrics, the benchmark reports %d", trace, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("trace %v: BENCHMARK.json has %+v, the benchmark reports %+v", trace, got[i], want[i])
			}
		}
	}
}
