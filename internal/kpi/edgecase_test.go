package kpi

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestLeafDevGuard pins the eps guard of Leaf.Dev across forecast signs: the
// denominator's magnitude never falls below eps, the guard never flips the
// deviation's sign, and a zero eps leaves positive-forecast behavior exactly
// as before.
func TestLeafDevGuard(t *testing.T) {
	const eps = 1e-9
	tests := []struct {
		name     string
		leaf     Leaf
		eps      float64
		want     float64 // NaN means "assert finiteness and sign only"
		wantSign float64
	}{
		{"positive forecast, no eps", Leaf{Actual: 50, Forecast: 100}, 0, 0.5, 1},
		{"positive forecast with eps", Leaf{Actual: 50, Forecast: 100}, eps, math.NaN(), 1},
		{"negative forecast mirrors positive", Leaf{Actual: -50, Forecast: -100}, 0, 0.5, 1},
		{"negative forecast with eps", Leaf{Actual: -50, Forecast: -100}, eps, math.NaN(), 1},
		{"zero forecast, drop", Leaf{Actual: 1, Forecast: 0}, eps, math.NaN(), -1},
		{"zero forecast, spike", Leaf{Actual: -1, Forecast: 0}, eps, math.NaN(), 1},
		{"negative zero forecast", Leaf{Actual: 1, Forecast: math.Copysign(0, -1)}, eps, math.NaN(), -1},
		{"tiny negative forecast", Leaf{Actual: 1, Forecast: -1e-12}, eps, math.NaN(), 1},
		{"tiny positive forecast", Leaf{Actual: 1, Forecast: 1e-12}, eps, math.NaN(), -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.leaf.Dev(tt.eps)
			if math.IsInf(got, 0) || math.IsNaN(got) {
				t.Fatalf("Dev = %v, want finite", got)
			}
			if !math.IsNaN(tt.want) && got != tt.want {
				t.Fatalf("Dev = %v, want %v", got, tt.want)
			}
			if tt.wantSign > 0 && got <= 0 || tt.wantSign < 0 && got >= 0 {
				t.Fatalf("Dev = %v, want sign %v", got, tt.wantSign)
			}
			// The guard bounds the magnitude: |dev| <= |f - v| / eps.
			if tt.eps > 0 {
				if bound := math.Abs(tt.leaf.Forecast-tt.leaf.Actual) / tt.eps; math.Abs(got) > bound*(1+1e-12) {
					t.Fatalf("Dev = %v exceeds eps bound %v", got, bound)
				}
			}
		})
	}

	// The pre-guard denominator is eps-shifted away from zero on the
	// forecast's own side, so the negative branch is the exact mirror of the
	// positive one.
	pos := Leaf{Actual: 80, Forecast: 100}.Dev(eps)
	neg := Leaf{Actual: -80, Forecast: -100}.Dev(eps)
	if math.Abs(pos-neg) > 1e-15 {
		t.Errorf("Dev not sign-symmetric: +f gives %v, -f gives %v", pos, neg)
	}
}

// TestIndexerCacheHighAttributeIndexes pins the Indexer cache-key encoding:
// attribute indexes differing only above the low byte (a vs a+256) must map
// to different cache entries. A one-byte-per-attribute key collides them and
// silently hands back the wrong cuboid's indexer.
func TestIndexerCacheHighAttributeIndexes(t *testing.T) {
	// 258 attributes; attribute 1 and attribute 257 get different
	// cardinalities so a collision is observable through Size().
	attrs := make([]Attribute, 258)
	for i := range attrs {
		vals := []string{"a", "b"}
		if i == 257 {
			vals = []string{"a", "b", "c"}
		}
		attrs[i] = Attribute{Name: fmt.Sprintf("A%d", i), Values: vals}
	}
	s := MustSchema(attrs...)
	combo := make(Combination, 258)
	snap, err := NewSnapshot(s, []Leaf{{Combo: combo, Actual: 1, Forecast: 1}})
	if err != nil {
		t.Fatal(err)
	}

	low := snap.Indexer(Cuboid{1})
	high := snap.Indexer(Cuboid{257})
	if low == high {
		t.Fatal("cuboids {1} and {257} share a cached indexer: cache key collides above the low byte")
	}
	if low.Size() != 2 || high.Size() != 3 {
		t.Fatalf("indexer sizes %d/%d, want 2/3: a colliding key returned the wrong cuboid's indexer",
			low.Size(), high.Size())
	}
	// Repeat lookups still resolve to the right entries.
	if snap.Indexer(Cuboid{1}) != low || snap.Indexer(Cuboid{257}) != high {
		t.Fatal("repeat Indexer lookups did not hit their own cache entries")
	}
}

// bigScanSnapshot builds a dense two-attribute snapshot with more leaves
// than two halt strides, so ScanCuboid polls its hook mid-scan and splits
// across workers, with anomalous leaves in every worker's range.
func bigScanSnapshot(t *testing.T) *Snapshot {
	t.Helper()
	vals := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	s := MustSchema(
		Attribute{Name: "A", Values: vals("a", 100)},
		Attribute{Name: "B", Values: vals("b", 100)},
	)
	leaves := make([]Leaf, 0, 100*100)
	for a := int32(0); a < 100; a++ {
		for b := int32(0); b < 100; b++ {
			leaves = append(leaves, Leaf{
				Combo: Combination{a, b}, Actual: 1, Forecast: 1,
				Anomalous: a == 3 || (a+b)%7 == 0,
			})
		}
	}
	snap, err := NewSnapshot(s, leaves)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// haltSnapshot builds a random snapshot over schema with more leaves than
// two halt strides, so a scan polls its hook mid-pass.
func haltSnapshot(t *testing.T, schema *Schema) *Snapshot {
	t.Helper()
	r := rand.New(rand.NewSource(int64(schema.NumAttributes())))
	seen := make(map[string]bool)
	leaves := make([]Leaf, 2*haltStride+100)
	for i := range leaves {
		leaves[i] = randomLeaf(r, schema, seen)
	}
	snap, err := NewSnapshot(schema, leaves)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestScanCuboidHalt pins the Halt contract in every regime, at every
// worker count: a tripped hook aborts the scan with (dst[:0], false) —
// never a partial result mistakable for a complete one — while a
// never-tripping hook reproduces the unhalted scan exactly. The dense
// regime runs the chunked dense scan; the sparse and overflow regimes run
// Group's sort numbering and byte-key pass.
func TestScanCuboidHalt(t *testing.T) {
	for _, tc := range []struct {
		regime  string
		snap    *Snapshot
		cuboids []Cuboid
	}{
		{"dense", bigScanSnapshot(t), []Cuboid{{0}, {1}, {0, 1}}},
		{"sparse", haltSnapshot(t, groupBySchema(1000, 1000)), []Cuboid{{0, 1}}},
		{"overflow", haltSnapshot(t, overflowSchema()), []Cuboid{{0, 1, 2, 3, 4}}},
	} {
		t.Run(tc.regime, func(t *testing.T) {
			snap := tc.snap
			if snap.Len() <= 2*haltStride {
				t.Fatalf("snapshot has %d leaves, need more than two halt strides (%d)", snap.Len(), haltStride)
			}
			for _, cuboid := range tc.cuboids {
				if r := regimeOf(snap.Indexer(cuboid).Size(), snap.Len()); r != tc.regime {
					t.Fatalf("cuboid %v is %s, want %s", cuboid, r, tc.regime)
				}
			}
			for _, workers := range []int{1, 2, 4} {
				for _, cuboid := range tc.cuboids {
					want, _ := snap.ScanCuboid(cuboid, nil, workers, nil)
					got, ok := snap.ScanCuboid(cuboid, nil, workers, func() bool { return false })
					if !ok {
						t.Fatalf("workers %d cuboid %v: never-tripping halt aborted the scan", workers, cuboid)
					}
					if !sameCounts(got, want) {
						t.Fatalf("workers %d cuboid %v: halt variant %v, want %v", workers, cuboid, got, want)
					}

					got, ok = snap.ScanCuboid(cuboid, got, workers, func() bool { return true })
					if ok {
						t.Fatalf("workers %d cuboid %v: tripped halt reported a complete scan", workers, cuboid)
					}
					if len(got) != 0 {
						t.Fatalf("workers %d cuboid %v: aborted scan returned %d groups, want none", workers, cuboid, len(got))
					}
				}
			}

			// A hook tripping partway through still yields a clean abort, and
			// the scan stops promptly: the hook is not polled for the whole
			// leaf count.
			polls := 0
			_, ok := snap.ScanCuboid(tc.cuboids[0], nil, 1, func() bool {
				polls++
				return polls >= 2
			})
			if ok {
				t.Fatal("mid-scan trip reported a complete scan")
			}
			if polls != 2 {
				t.Fatalf("hook polled %d times after tripping on poll 2", polls)
			}
		})
	}
}
