// Package repro's root benchmark harness: one testing.B benchmark per table
// and figure of the RAPMiner paper's evaluation (see DESIGN.md for the
// experiment index). The benchmarks time exactly the operation the paper's
// artifact measures — localization per failure case for the figures, the
// ablation arms for Table VI, attribute deletion for Table IV — over the
// same corpora the cmd/experiments driver uses.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"strconv"
	"sync"
	"testing"

	"repro/internal/evalmetrics"
	"repro/internal/experiments"
	"repro/internal/gendata"
	"repro/internal/inject"
	"repro/internal/localize"
	"repro/internal/methods"
	"repro/internal/rapminer"
)

const benchSeed = 2022

// corpora are generated once and shared across benchmarks. Errors from
// generating them are captured next to the data — not panicked — so a
// corpus bug fails the requesting benchmark with b.Fatal instead of
// crashing the whole run (and every later caller sees the same error).
var (
	squeezeOnce sync.Once
	squeezeData map[string]*gendata.Corpus
	squeezeErr  error

	rapmdOnce sync.Once
	rapmdData *gendata.Corpus
	rapmdErr  error
)

func squeezeCorpora(b *testing.B) map[string]*gendata.Corpus {
	b.Helper()
	squeezeOnce.Do(func() {
		data := make(map[string]*gendata.Corpus)
		for gi, group := range gendata.SqueezeGroups() {
			c, err := gendata.SqueezeB0(benchSeed+int64(gi), group, 3)
			if err != nil {
				squeezeErr = fmt.Errorf("squeeze corpus %s: %w", group, err)
				return
			}
			data[group.String()] = c
		}
		squeezeData = data
	})
	if squeezeErr != nil {
		b.Fatal(squeezeErr)
	}
	return squeezeData
}

func rapmdCorpus(b *testing.B) *gendata.Corpus {
	b.Helper()
	rapmdOnce.Do(func() {
		c, err := gendata.RAPMD(benchSeed, 10)
		if err != nil {
			rapmdErr = fmt.Errorf("rapmd corpus: %w", err)
			return
		}
		rapmdData = c
	})
	if rapmdErr != nil {
		b.Fatal(rapmdErr)
	}
	return rapmdData
}

// paperMethods builds the five localizers of the paper's figures with
// their default configurations.
func paperMethods() ([]localize.Localizer, error) {
	var paper []methods.Method
	for _, m := range methods.All() {
		if m.Paper {
			paper = append(paper, m)
		}
	}
	return methods.Build(rapminer.DefaultConfig(), paper...)
}

func benchMethods(b *testing.B) []localize.Localizer {
	b.Helper()
	methods, err := paperMethods()
	if err != nil {
		b.Fatal(err)
	}
	return methods
}

// benchmarkLocalize times one method over every case of a corpus, asking
// for k = number of true RAPs (the Fig. 8a protocol) or a fixed k.
func benchmarkLocalize(b *testing.B, m localize.Localizer, cases []inject.Case, fixedK int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cases[i%len(cases)]
		k := fixedK
		if k <= 0 {
			k = len(c.RAPs)
		}
		if _, err := m.Localize(c.Snapshot, k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8aSqueezeB0 regenerates the Fig. 8(a)/9(a) measurement: every
// method localizing Squeeze-B0 cases, by group. ns/op is the per-case
// localization time Fig. 9(a) plots; the F1 side is checked by
// TestBenchCorpusEffectiveness below.
func BenchmarkFig8aSqueezeB0(b *testing.B) {
	corpora := squeezeCorpora(b)
	methods := benchMethods(b)
	for _, group := range gendata.SqueezeGroups() {
		corpus := corpora[group.String()]
		for _, m := range methods {
			b.Run("group="+group.String()+"/method="+m.Name(), func(b *testing.B) {
				benchmarkLocalize(b, m, corpus.Cases, 0)
			})
		}
	}
}

// BenchmarkFig8bRAPMD regenerates the Fig. 8(b)/9(b) measurement: every
// method on the RAPMD corpus with k = 5 (the largest RC@k depth).
func BenchmarkFig8bRAPMD(b *testing.B) {
	corpus := rapmdCorpus(b)
	for _, m := range benchMethods(b) {
		b.Run("method="+m.Name(), func(b *testing.B) {
			benchmarkLocalize(b, m, corpus.Cases, 5)
		})
	}
}

// BenchmarkFig9bRAPMD times each paper method on one fixed RAPMD case with
// k = 5: the per-case running time Fig. 9(b) compares. One case keeps
// ns/op comparable between commits at any iteration count, where the
// Fig. 8(b) benchmark's average depends on how many cases it cycles
// through.
func BenchmarkFig9bRAPMD(b *testing.B) {
	c := rapmdCorpus(b).Cases[:1]
	for _, m := range benchMethods(b) {
		b.Run("method="+m.Name(), func(b *testing.B) {
			benchmarkLocalize(b, m, c, 5)
		})
	}
}

// BenchmarkFig10aSensitivityTCP times RAPMiner across the t_CP grid of
// Fig. 10(a); effectiveness per grid point is produced by cmd/experiments.
func BenchmarkFig10aSensitivityTCP(b *testing.B) {
	corpus := rapmdCorpus(b)
	for _, tcp := range experiments.TCPGrid {
		cfg := rapminer.DefaultConfig()
		cfg.TCP = tcp
		miner, err := rapminer.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("tcp="+strconv.FormatFloat(tcp, 'g', -1, 64), func(b *testing.B) {
			benchmarkLocalize(b, miner, corpus.Cases, 3)
		})
	}
}

// BenchmarkFig10bSensitivityTConf times RAPMiner across the t_conf grid of
// Fig. 10(b).
func BenchmarkFig10bSensitivityTConf(b *testing.B) {
	corpus := rapmdCorpus(b)
	for _, tconf := range experiments.TConfGrid {
		cfg := rapminer.DefaultConfig()
		cfg.TConf = tconf
		miner, err := rapminer.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("tconf="+strconv.FormatFloat(tconf, 'g', -1, 64), func(b *testing.B) {
			benchmarkLocalize(b, miner, corpus.Cases, 3)
		})
	}
}

// BenchmarkSearchParallel measures the worker-pool scaling of the RAPMiner
// search on the RAPMD corpus: the same localization at 1, 2, 4 and 8
// workers. Results are bit-identical across worker counts (pinned by
// TestParallelSearchMatchesSequential in internal/rapminer), so ns/op is
// the only axis that moves; allocs/op tracks the steady-state allocation
// work of the engine.
func BenchmarkSearchParallel(b *testing.B) {
	corpus := rapmdCorpus(b)
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := rapminer.DefaultConfig()
		cfg.Workers = workers
		miner, err := rapminer.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			benchmarkLocalize(b, miner, corpus.Cases, 5)
		})
	}
}

// BenchmarkTable4RedundantDeletion times Algorithm 1 (classification powers
// plus attribute selection) on RAPMD snapshots — the stage whose analytic
// payoff Table IV quantifies.
func BenchmarkTable4RedundantDeletion(b *testing.B) {
	corpus := rapmdCorpus(b)
	tCP := rapminer.DefaultConfig().TCP
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := corpus.Cases[i%len(corpus.Cases)].Snapshot
		cps := rapminer.ClassificationPowers(snap)
		if kept := rapminer.SelectAttributes(cps, tCP); len(kept) == 0 {
			b.Fatal("no attributes kept")
		}
	}
}

// BenchmarkTable6DeletionAblation times the two Table VI arms: RAPMiner
// with and without redundant attribute deletion. The ratio of the two
// ns/op values is the efficiency improvement the table reports.
func BenchmarkTable6DeletionAblation(b *testing.B) {
	corpus := rapmdCorpus(b)
	arms := []struct {
		name    string
		disable bool
	}{
		{"with-deletion", false},
		{"without-deletion", true},
	}
	for _, arm := range arms {
		cfg := rapminer.DefaultConfig()
		cfg.DisableAttributeDeletion = arm.disable
		miner, err := rapminer.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(arm.name, func(b *testing.B) {
			benchmarkLocalize(b, miner, corpus.Cases, 3)
		})
	}
}

// TestBenchCorpusEffectiveness pins the headline effectiveness shapes on the
// benchmark corpora so a regression in any method's quality fails loudly
// here, next to the timing benches.
func TestBenchCorpusEffectiveness(t *testing.T) {
	corpus, err := gendata.RAPMD(benchSeed, 20)
	if err != nil {
		t.Fatal(err)
	}
	methods, err := paperMethods()
	if err != nil {
		t.Fatal(err)
	}
	rc := make(map[string]float64, len(methods))
	for _, m := range methods {
		metric, err := evalmetrics.NewRCAtK(3)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range corpus.Cases {
			res, err := m.Localize(c.Snapshot, 5)
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			metric.Add(res.TopK(5), c.RAPs)
		}
		rc[m.Name()] = metric.Value()
	}
	t.Logf("RC@3 on the 20-case RAPMD corpus: %v", rc)
	if rc["RAPMiner"] < 0.7 {
		t.Errorf("RAPMiner RC@3 = %v, want >= 0.7", rc["RAPMiner"])
	}
	if rc["RAPMiner"] <= rc["Squeeze"] || rc["RAPMiner"] <= rc["Adtributor"] {
		t.Errorf("RAPMiner (%v) should beat Squeeze (%v) and Adtributor (%v)",
			rc["RAPMiner"], rc["Squeeze"], rc["Adtributor"])
	}
}
