package idice

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/kpi"
	"repro/internal/localize"
)

// referenceLocalize is Localize as it was before isolation power was read
// from group counts: every surviving combination is scored by
// scanIsolationPower, one full pass over the leaves.
func (l *Localizer) referenceLocalize(snapshot *kpi.Snapshot, k int) localize.Result {
	if snapshot.NumAnomalous() == 0 {
		return localize.Result{}
	}
	totalV, totalF := snapshot.Sum(kpi.NewRoot(snapshot.Schema.NumAttributes()))
	totalVolume := totalV + totalF
	attrs := make([]int, snapshot.Schema.NumAttributes())
	for i := range attrs {
		attrs[i] = i
	}
	var patterns []localize.ScoredPattern
	for _, cuboid := range kpi.AllCuboids(attrs) {
		for _, g := range snapshot.GroupBy(cuboid) {
			if totalVolume > 0 && (g.Actual+g.Forecast)/totalVolume < l.cfg.MinImpact {
				continue
			}
			if !l.changed(g.Actual, g.Forecast) {
				continue
			}
			ip := scanIsolationPower(snapshot, g.Combo)
			if ip <= 0 {
				continue
			}
			patterns = append(patterns, localize.ScoredPattern{Combo: g.Combo, Score: ip})
		}
	}
	localize.SortPatterns(patterns)
	if k < len(patterns) {
		patterns = patterns[:k]
	}
	return localize.Result{Patterns: patterns}
}

// wideSchema has four 56,000-value attributes, so its index product
// overflows int64 and the full cuboid is grouped by projected combination.
var wideSchema = sync.OnceValue(func() *kpi.Schema {
	return fuzzSchema([]int{56000, 56000, 56000, 56000})
})

func fuzzSchema(cards []int) *kpi.Schema {
	attrs := make([]kpi.Attribute, len(cards))
	for a, n := range cards {
		vals := make([]string, n)
		for v := range vals {
			vals[v] = fmt.Sprintf("%c%d", 'a'+a, v)
		}
		attrs[a] = kpi.Attribute{Name: string(rune('A' + a)), Values: vals}
	}
	return kpi.MustSchema(attrs...)
}

// fuzzSnapshot draws up to a few hundred distinct leaves over a small
// random schema, or over wideSchema. Each of nFailures random patterns
// fails with its own magnitude; forecasts span up to 10^skew, and a share
// of the labels is flipped.
func fuzzSnapshot(t *testing.T, seed int64, nFailures, skew, flip int, wide bool) *kpi.Snapshot {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	var schema *kpi.Schema
	if wide {
		schema = wideSchema()
	} else {
		cards := make([]int, 1+r.Intn(4))
		for a := range cards {
			cards[a] = 1 + r.Intn(6)
		}
		schema = fuzzSchema(cards)
	}
	randomCombo := func() kpi.Combination {
		c := make(kpi.Combination, schema.NumAttributes())
		for a := range c {
			c[a] = int32(r.Intn(schema.Cardinality(a)))
		}
		return c
	}
	var combos []kpi.Combination
	seen := make(map[string]bool)
	for tries := 60 + r.Intn(300); tries > 0; tries-- {
		if c := randomCombo(); !seen[c.Key()] {
			seen[c.Key()] = true
			combos = append(combos, c)
		}
	}
	patterns := make([]kpi.Combination, nFailures)
	magnitudes := make([]float64, nFailures)
	for j := range patterns {
		p := combos[r.Intn(len(combos))].Clone()
		for a := range p {
			if r.Intn(2) == 0 {
				p[a] = kpi.Wildcard
			}
		}
		patterns[j], magnitudes[j] = p, 0.05+0.9*r.Float64()
	}
	leaves := make([]kpi.Leaf, len(combos))
	for i, c := range combos {
		f := math.Pow(10, float64(skew)*r.Float64())
		leaf := kpi.Leaf{Combo: c, Actual: f, Forecast: f}
		for j, p := range patterns {
			if p.Matches(c) {
				leaf.Actual = f * (1 - magnitudes[j])
				leaf.Anomalous = true
				break
			}
		}
		if r.Intn(100) < flip {
			leaf.Anomalous = !leaf.Anomalous
		}
		leaves[i] = leaf
	}
	snap, err := kpi.NewSnapshot(schema, leaves)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	return snap
}

// FuzzIDiceMatchesReference holds Localize to the full-scan isolation
// power it replaced: identical patterns with bit-identical scores, on
// small random schemas with several failures, skewed forecasts, label
// noise and an int64-overflowing schema.
func FuzzIDiceMatchesReference(f *testing.F) {
	f.Add(int64(1), byte(2), byte(2), byte(0), byte(0), false)
	f.Add(int64(2), byte(1), byte(6), byte(10), byte(1), false)
	f.Add(int64(3), byte(3), byte(0), byte(3), byte(2), false)
	f.Add(int64(4), byte(2), byte(3), byte(0), byte(0), true)
	f.Fuzz(func(t *testing.T, seed int64, nFailures, skew, flip, thresholds byte, wide bool) {
		snap := fuzzSnapshot(t, seed, 1+int(nFailures%4), int(skew%9), int(flip%30), wide)
		cfg := []Config{DefaultConfig(), {}, {MinImpact: 0.05, MinChange: 0.2}}[thresholds%3]
		l, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := l.Localize(snap, math.MaxInt32)
		if err != nil {
			t.Fatalf("Localize: %v", err)
		}
		want := l.referenceLocalize(snap, math.MaxInt32)
		if len(got.Patterns) != len(want.Patterns) {
			t.Fatalf("%d patterns, reference %d", len(got.Patterns), len(want.Patterns))
		}
		for i, p := range got.Patterns {
			w := want.Patterns[i]
			if !p.Combo.Equal(w.Combo) || math.Float64bits(p.Score) != math.Float64bits(w.Score) {
				t.Fatalf("pattern %d = %s %.17g, reference %s %.17g",
					i, p.Combo.Format(snap.Schema), p.Score, w.Combo.Format(snap.Schema), w.Score)
			}
		}
	})
}
