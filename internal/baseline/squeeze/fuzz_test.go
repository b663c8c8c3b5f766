package squeeze

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/kpi"
)

// wideSchema has four 56,000-value attributes: the index product overflows
// int64, every cuboid past layer 1 exceeds int32 group indexes, and the
// layer-1 domains are wider than a small snapshot's dense bound.
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

// fuzzSnapshot builds a labeled snapshot over a small random schema, or
// over wideSchema. Each of nFailures random patterns fails with its own
// magnitude, so the anomalous leaves fall into several deviation
// clusters; forecasts span up to 10^skew, and a few normal leaves carry
// forecast noise.
func fuzzSnapshot(t *testing.T, seed int64, nFailures, skew int, wide bool) *kpi.Snapshot {
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
	cards := make([]int, schema.NumAttributes())
	for a := range cards {
		cards[a] = schema.Cardinality(a)
	}

	randomCombo := func() kpi.Combination {
		c := make(kpi.Combination, len(cards))
		for a, n := range cards {
			c[a] = int32(r.Intn(n))
		}
		return c
	}
	var combos []kpi.Combination
	if n := schema.NumLeaves(); n > 0 && n <= 400 {
		keep := 0.3 + 0.7*r.Float64()
		var rec func(c kpi.Combination, a int)
		rec = func(c kpi.Combination, a int) {
			if a == len(cards) {
				if r.Float64() < keep {
					combos = append(combos, c.Clone())
				}
				return
			}
			for v := 0; v < cards[a]; v++ {
				c[a] = int32(v)
				rec(c, a+1)
			}
		}
		rec(make(kpi.Combination, len(cards)), 0)
	} else {
		seen := make(map[string]bool)
		for len(combos) < 60+r.Intn(200) {
			c := randomCombo()
			if !seen[c.Key()] {
				seen[c.Key()] = true
				combos = append(combos, c)
			}
		}
	}

	// Failing patterns: each generalizes a random leaf on a random subset
	// of its attributes and fails with its own magnitude.
	type failure struct {
		pattern   kpi.Combination
		magnitude float64
	}
	failures := make([]failure, nFailures)
	for j := range failures {
		if len(combos) == 0 {
			break
		}
		p := combos[r.Intn(len(combos))].Clone()
		for a := range p {
			if r.Intn(2) == 0 {
				p[a] = kpi.Wildcard
			}
		}
		failures[j] = failure{pattern: p, magnitude: 0.05 + 0.9*r.Float64()}
	}
	leaves := make([]kpi.Leaf, len(combos))
	for i, c := range combos {
		f := math.Pow(10, float64(skew)*r.Float64())
		if r.Intn(20) == 0 {
			f = 0
		}
		leaf := kpi.Leaf{Combo: c, Actual: f, Forecast: f}
		for _, fl := range failures {
			if fl.pattern != nil && fl.pattern.Matches(c) {
				leaf.Actual = f * (1 - fl.magnitude*(1+0.02*r.NormFloat64()))
				leaf.Anomalous = true
				break
			}
		}
		if !leaf.Anomalous && r.Intn(8) == 0 {
			leaf.Actual = f * (1 + 0.05*r.NormFloat64())
		}
		leaves[i] = leaf
	}
	snap, err := kpi.NewSnapshot(schema, leaves)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	return snap
}

// checkMatchesReference demands the grouped search return exactly the
// reference's patterns with bit-identical scores, and the gap-splitting
// clustering exactly the histogram's clusters.
func checkMatchesReference(t *testing.T, snap *kpi.Snapshot, cfg Config) {
	t.Helper()
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
		t.Fatalf("%d patterns, reference %d:\n%s\nreference:\n%s",
			len(got.Patterns), len(want.Patterns), got.Format(snap.Schema), want.Format(snap.Schema))
	}
	for i, p := range got.Patterns {
		w := want.Patterns[i]
		if !p.Combo.Equal(w.Combo) || math.Float64bits(p.Score) != math.Float64bits(w.Score) {
			t.Fatalf("pattern %d = %s %.17g, reference %s %.17g",
				i, p.Combo.Format(snap.Schema), p.Score, w.Combo.Format(snap.Schema), w.Score)
		}
	}

	var (
		scores  []float64
		leafIdx []int
	)
	for i, leaf := range snap.Leaves {
		if leaf.Anomalous {
			scores = append(scores, deviationScore(leaf, cfg.Eps))
			leafIdx = append(leafIdx, i)
		}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range scores {
		lo, hi = math.Min(lo, s), math.Max(hi, s)
	}
	// The histogram allocates a bin per BinWidth of the range; compare
	// only where it stays small and every score is finite.
	if len(scores) == 0 || math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsNaN(lo) || (hi-lo)/cfg.BinWidth > 1e5 {
		return
	}
	gotC := clusterByDeviation(scores, leafIdx, cfg.BinWidth)
	wantC := referenceClusterByDeviation(scores, leafIdx, cfg.BinWidth)
	if len(gotC) != len(wantC) {
		t.Fatalf("%d clusters, reference %d", len(gotC), len(wantC))
	}
	for i := range gotC {
		if math.Float64bits(gotC[i].center) != math.Float64bits(wantC[i].center) || len(gotC[i].leafIdx) != len(wantC[i].leafIdx) {
			t.Fatalf("cluster %d = %v, reference %v", i, gotC[i], wantC[i])
		}
		for j := range gotC[i].leafIdx {
			if gotC[i].leafIdx[j] != wantC[i].leafIdx[j] {
				t.Fatalf("cluster %d = %v, reference %v", i, gotC[i], wantC[i])
			}
		}
	}
}

// FuzzSqueezeMatchesReference holds Localize to the per-(cluster, cuboid)
// leaf rescans it replaced, on small random schemas with several failure
// magnitudes, skewed forecasts and an int64-overflowing schema.
func FuzzSqueezeMatchesReference(f *testing.F) {
	f.Add(int64(1), byte(3), byte(2), byte(0), false)
	f.Add(int64(2), byte(1), byte(6), byte(1), false)
	f.Add(int64(3), byte(4), byte(0), byte(2), false)
	f.Add(int64(4), byte(2), byte(3), byte(0), true)
	f.Add(int64(5), byte(5), byte(8), byte(3), false)
	f.Fuzz(func(t *testing.T, seed int64, nFailures, skew, prefix byte, wide bool) {
		snap := fuzzSnapshot(t, seed, 1+int(nFailures%5), int(skew%9), wide)
		cfg := DefaultConfig()
		cfg.MaxPrefix = []int{20, 1, 3, 64}[prefix%4]
		checkMatchesReference(t, snap, cfg)
	})
}

// TestMatchesReferenceOnSparseWorld runs the reference comparison on a
// sparse 20×16×12×10×8×6 world, whose deeper cuboids exceed the dense
// numbering bound and are numbered by sorting their distinct indexes
// (kpi's TestGroupByMatchesRowWiseReference checks that premise against
// the bound).
func TestMatchesReferenceOnSparseWorld(t *testing.T) {
	cards := []int{20, 16, 12, 10, 8, 6}
	schema := fuzzSchema(cards)
	r := rand.New(rand.NewSource(7))
	seen := make(map[string]bool)
	var leaves []kpi.Leaf
	rap := kpi.Combination{3, kpi.Wildcard, 5, kpi.Wildcard, kpi.Wildcard, kpi.Wildcard}
	for len(leaves) < 2000 {
		c := make(kpi.Combination, len(cards))
		for a, n := range cards {
			c[a] = int32(r.Intn(n))
		}
		if r.Intn(10) == 0 {
			c[0], c[2] = 3, 5
		}
		if seen[c.Key()] {
			continue
		}
		seen[c.Key()] = true
		f := 10 + 90*r.Float64()
		leaf := kpi.Leaf{Combo: c, Actual: f, Forecast: f}
		if rap.Matches(c) {
			leaf.Actual = f * (0.4 + 0.02*r.NormFloat64())
			leaf.Anomalous = true
		}
		leaves = append(leaves, leaf)
	}
	snap, err := kpi.NewSnapshot(schema, leaves)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesReference(t, snap, DefaultConfig())
}
