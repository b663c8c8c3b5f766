package kpi

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchSnapshot builds a CDN-sized dense snapshot (33*4*4*20 leaves).
func benchSnapshot(b *testing.B) *Snapshot {
	b.Helper()
	attrs := []Attribute{
		{Name: "Location", Values: elems("L", 33)},
		{Name: "AccessType", Values: elems("A", 4)},
		{Name: "OS", Values: elems("O", 4)},
		{Name: "Website", Values: elems("S", 20)},
	}
	s := MustSchema(attrs...)
	r := rand.New(rand.NewSource(1))
	leaves := make([]Leaf, 0, s.NumLeaves())
	for l := int32(0); l < 33; l++ {
		for a := int32(0); a < 4; a++ {
			for o := int32(0); o < 4; o++ {
				for w := int32(0); w < 20; w++ {
					leaves = append(leaves, Leaf{
						Combo:     Combination{l, a, o, w},
						Actual:    100 * r.Float64(),
						Forecast:  100,
						Anomalous: r.Intn(20) == 0,
					})
				}
			}
		}
	}
	snap, err := NewSnapshot(s, leaves)
	if err != nil {
		b.Fatal(err)
	}
	return snap
}

func elems(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = prefix + string(rune('0'+i/10)) + string(rune('0'+i%10))
	}
	return out
}

func BenchmarkGroupByLayer1(b *testing.B) {
	snap := benchSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := snap.GroupBy(Cuboid{0}); len(got) != 33 {
			b.Fatalf("groups = %d", len(got))
		}
	}
}

func BenchmarkGroupByLayer2(b *testing.B) {
	snap := benchSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := snap.GroupBy(Cuboid{0, 3}); len(got) != 660 {
			b.Fatalf("groups = %d", len(got))
		}
	}
}

func BenchmarkGroupByLeafCuboid(b *testing.B) {
	snap := benchSnapshot(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := snap.GroupBy(Cuboid{0, 1, 2, 3}); len(got) != snap.Len() {
			b.Fatalf("groups = %d", len(got))
		}
	}
}

func BenchmarkSupportCount(b *testing.B) {
	snap := benchSnapshot(b)
	combo := Combination{3, Wildcard, Wildcard, 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if total, _ := snap.SupportCount(combo); total == 0 {
			b.Fatal("no support")
		}
	}
}

func BenchmarkCuboidIndexer(b *testing.B) {
	snap := benchSnapshot(b)
	ix := NewCuboidIndexer(snap.Schema, Cuboid{0, 2, 3})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum := 0
		for j := range snap.Leaves {
			sum += ix.Index(snap.Leaves[j].Combo)
		}
		if sum == 0 {
			b.Fatal("degenerate sum")
		}
	}
}

// BenchmarkRollupVsScan prices the search's two count sources on the
// CDN-sized snapshot over the schedule of layers 1-3 (the BFS layer
// barrier order), at worker counts 1/2/4/8: mode=scan counts every cuboid
// with its own ScanCuboid leaf pass; mode=rollup pays one base pass from a
// cold plan and serves every cuboid by memoized marginalization.
func BenchmarkRollupVsScan(b *testing.B) {
	snap := benchSnapshot(b)
	attrs := []int{0, 1, 2, 3}
	_ = snap.Columns() // build the columnar store outside the timer
	var schedule []Cuboid
	for layer := 1; layer <= 3; layer++ {
		schedule = append(schedule, CuboidsAtLayer(attrs, layer)...)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("schedule/mode=scan/workers=%d", workers), func(b *testing.B) {
			var buf []GroupCount
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				total := 0
				for _, c := range schedule {
					buf, _ = snap.ScanCuboid(c, buf, workers, nil)
					total += len(buf)
				}
				if total == 0 {
					b.Fatal("no groups")
				}
			}
		})
		b.Run(fmt.Sprintf("schedule/mode=rollup/workers=%d", workers), func(b *testing.B) {
			var buf []GroupCount
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan := snap.NewRollupPlan(attrs)
				if plan == nil || !plan.Run(workers, nil) {
					b.Fatal("base pass failed")
				}
				total := 0
				for _, c := range schedule {
					buf = plan.Groups(c, buf)
					total += len(buf)
				}
				plan.Close()
				if total == 0 {
					b.Fatal("no groups")
				}
			}
		})
	}
}
