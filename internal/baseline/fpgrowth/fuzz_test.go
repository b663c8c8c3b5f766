package fpgrowth

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/kpi"
)

// wideSchema has four 56,000-value attributes (codes still fit an Item's
// 16 bits): layer-1 cuboids are dense, layer 2 and 3 exceed the dense
// bound and scan sparsely, and the full cuboid's index product overflows
// int64.
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
// over wideSchema with leaves clustered on a few elements per attribute so
// that deep itemsets are frequent. Each of nFailures random patterns marks
// its leaves anomalous, and a few other leaves are anomalous at random.
func fuzzSnapshot(t *testing.T, seed int64, nFailures int, wide bool) *kpi.Snapshot {
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
	// Draw each attribute's codes from a small pool, so that a wide
	// snapshot shares elements across leaves.
	pools := make([][]int32, schema.NumAttributes())
	for a := range pools {
		n := schema.Cardinality(a)
		for range min(n, 2+r.Intn(5)) {
			pools[a] = append(pools[a], int32(r.Intn(n)))
		}
	}
	seen := make(map[string]bool)
	var combos []kpi.Combination
	for range 40 + r.Intn(200) {
		c := make(kpi.Combination, len(pools))
		for a, pool := range pools {
			c[a] = pool[r.Intn(len(pool))]
		}
		if !seen[c.Key()] {
			seen[c.Key()] = true
			combos = append(combos, c)
		}
	}
	failures := make([]kpi.Combination, nFailures)
	for j := range failures {
		p := combos[r.Intn(len(combos))].Clone()
		for a := range p {
			if r.Intn(2) == 0 {
				p[a] = kpi.Wildcard
			}
		}
		failures[j] = p
	}
	leaves := make([]kpi.Leaf, len(combos))
	for i, c := range combos {
		leaves[i] = kpi.Leaf{Combo: c, Actual: 100, Forecast: 100, Anomalous: r.Intn(25) == 0}
		for _, p := range failures {
			if p.Matches(c) {
				leaves[i].Anomalous = true
			}
		}
	}
	snap, err := kpi.NewSnapshot(schema, leaves)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	return snap
}

// checkMatchesLeafScan demands Localize return exactly the patterns and
// score bits it returns when each rule's confidence comes from the leaf
// scan of Snapshot.Confidence.
func checkMatchesLeafScan(t *testing.T, snap *kpi.Snapshot, cfg Config) {
	t.Helper()
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.Localize(snap, math.MaxInt32)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	want, err := l.localize(context.Background(), snap, math.MaxInt32, snap.Confidence)
	if err != nil {
		t.Fatalf("leaf-scan localize: %v", err)
	}
	if len(got.Patterns) != len(want.Patterns) {
		t.Fatalf("%d patterns, leaf scan %d:\n%s\nleaf scan:\n%s",
			len(got.Patterns), len(want.Patterns), got.Format(snap.Schema), want.Format(snap.Schema))
	}
	for i, p := range got.Patterns {
		w := want.Patterns[i]
		if !p.Combo.Equal(w.Combo) || math.Float64bits(p.Score) != math.Float64bits(w.Score) {
			t.Fatalf("pattern %d = %s %.17g, leaf scan %s %.17g",
				i, p.Combo.Format(snap.Schema), p.Score, w.Combo.Format(snap.Schema), w.Score)
		}
	}
}

// FuzzFPGrowthMatchesReference holds Localize, whose rule confidences come
// from cuboid counts, to the same run with confidences from leaf scans, on
// small random schemas and on a schema whose deep cuboids are sparse or
// overflow int64, with both miners and several thresholds.
func FuzzFPGrowthMatchesReference(f *testing.F) {
	f.Add(int64(1), byte(2), byte(0), false)
	f.Add(int64(2), byte(1), byte(5), false)
	f.Add(int64(3), byte(3), byte(2), true)
	f.Add(int64(4), byte(0), byte(7), true)
	f.Add(int64(5), byte(4), byte(11), false)
	f.Fuzz(func(t *testing.T, seed int64, nFailures, thresholds byte, wide bool) {
		snap := fuzzSnapshot(t, seed, 1+int(nFailures%4), wide)
		cfg := Config{
			MinSupportRatio: []float64{0.1, 0.02, 0.5}[thresholds%3],
			MinConfidence:   []float64{0.8, 0.3, 1}[thresholds/3%3],
			UseApriori:      thresholds&8 != 0,
		}
		checkMatchesLeafScan(t, snap, cfg)
	})
}

// TestCuboidCountsMatchLeafScan compares every confidence read from cuboid
// counts with Snapshot.Confidence, for each projection of each leaf and
// for absent combinations, on a small schema and on the wide one, where
// the layers take the dense, the sparse and the overflowing scan.
func TestCuboidCountsMatchLeafScan(t *testing.T) {
	for _, wide := range []bool{false, true} {
		snap := fuzzSnapshot(t, 11, 3, wide)
		cc := newCuboidCounts(snap)
		n := snap.Schema.NumAttributes()
		check := func(combo kpi.Combination) {
			t.Helper()
			if got, want := cc.confidence(combo), snap.Confidence(combo); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("wide=%v: confidence %s = %v, leaf scan %v", wide, combo.Format(snap.Schema), got, want)
			}
		}
		for mask := 1; mask < 1<<n; mask++ {
			for _, leaf := range snap.Leaves {
				combo := kpi.NewRoot(n)
				for a := range n {
					if mask&(1<<a) != 0 {
						combo[a] = leaf.Combo[a]
					}
				}
				check(combo)
				// The next element on the first constrained attribute,
				// often one that no leaf under the rest carries.
				for a := range n {
					if mask&(1<<a) != 0 {
						if card := snap.Schema.Cardinality(a); card > 1 {
							combo[a] = (combo[a] + 1) % int32(card)
							check(combo)
						}
						break
					}
				}
			}
		}
	}
}
