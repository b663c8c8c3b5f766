package kpi

import (
	"fmt"
	"math/rand"
	"testing"
)

// fuzzSnapshot derives a randomized snapshot from the fuzz inputs: a schema
// with 2-4 attributes of cardinality 2-5, and a random subset of the domain
// observed with random values and labels.
func fuzzSnapshot(seed int64, density, anomRate byte) *Snapshot {
	r := rand.New(rand.NewSource(seed))
	nAttr := 2 + r.Intn(3)
	attrs := make([]Attribute, nAttr)
	domain := 1
	for a := range attrs {
		card := 2 + r.Intn(4)
		vals := make([]string, card)
		for i := range vals {
			vals[i] = fmt.Sprintf("a%dv%d", a, i)
		}
		attrs[a] = Attribute{Name: fmt.Sprintf("a%d", a), Values: vals}
		domain *= card
	}
	schema := MustSchema(attrs...)

	keep := float64(density%100) / 100
	anom := float64(anomRate%100) / 100
	var leaves []Leaf
	combo := make(Combination, nAttr)
	for g := 0; g < domain; g++ {
		if r.Float64() >= keep {
			continue
		}
		rest := g
		for a := nAttr - 1; a >= 0; a-- {
			card := schema.Cardinality(a)
			combo[a] = int32(rest % card)
			rest /= card
		}
		leaves = append(leaves, Leaf{
			Combo:     combo.Clone(),
			Actual:    r.NormFloat64() * 50,
			Forecast:  r.NormFloat64() * 50,
			Anomalous: r.Float64() < anom,
		})
	}
	snap, err := NewSnapshot(schema, leaves)
	if err != nil {
		panic(err) // the generator only emits valid snapshots
	}
	return snap
}

// FuzzColumnsFusedScan is the dictionary-encoding property test: on
// randomized snapshots, EncodeColumns->decode round-trips every leaf, and
// the two count paths that read the columns — the columnar ScanCuboid and
// the roll-up served from one base pass — match GroupBy's counts for every
// cuboid of the lattice at several worker counts.
func FuzzColumnsFusedScan(f *testing.F) {
	f.Add(int64(1), byte(60), byte(30))
	f.Add(int64(2), byte(95), byte(5))
	f.Add(int64(3), byte(10), byte(90))
	f.Add(int64(42), byte(0), byte(50)) // empty snapshot
	f.Fuzz(func(t *testing.T, seed int64, density, anomRate byte) {
		snap := fuzzSnapshot(seed, density, anomRate)

		// Property 1: lossless dictionary encoding.
		cols := EncodeColumns(snap)
		for i := range snap.Leaves {
			want := snap.Leaves[i]
			got := cols.Leaf(i)
			if !got.Combo.Equal(want.Combo) || got.Actual != want.Actual ||
				got.Forecast != want.Forecast || got.Anomalous != want.Anomalous {
				t.Fatalf("leaf %d: decoded %+v, want %+v", i, got, want)
			}
		}

		// Property 2: columnar scan counts == GroupBy counts, independent
		// of the worker count.
		attrs := make([]int, snap.Schema.NumAttributes())
		for a := range attrs {
			attrs[a] = a
		}
		var got []GroupCount
		for _, cuboid := range AllCuboids(attrs) {
			want := wantCounts(snap, cuboid)
			for _, workers := range []int{1, 3, 8} {
				var ok bool
				got, ok = snap.ScanCuboid(cuboid, got, workers, nil)
				if !ok || !sameCounts(got, want) {
					t.Fatalf("cuboid %v workers %d: scan %v (ok %v), want %v", cuboid, workers, got, ok, want)
				}
			}
		}

		// Property 3: roll-up-served counts == GroupBy counts for every
		// cuboid the base refines, at base limits straddling the
		// materialization boundary — the full domain (everything rolls
		// up), the leaf-count heuristic, and a limit tight enough that the
		// base shrinks to a strict attribute subset or to nothing.
		domain := 1
		for a := range attrs {
			domain *= snap.Schema.Cardinality(a)
		}
		for _, limit := range []int{domain, domain - 1, defaultRollupLimit(snap.Len()), 4} {
			for _, workers := range []int{1, 3, 8} {
				plan := snap.newRollupPlan(attrs, limit)
				if plan == nil {
					continue // nothing materializable under this limit
				}
				if !plan.Run(workers, nil) {
					t.Fatalf("limit %d workers %d: base pass aborted without a halt", limit, workers)
				}
				for _, cuboid := range AllCuboids(attrs) {
					if !plan.Serves(cuboid) {
						continue // outside the base: scanned by the search
					}
					got = plan.Groups(cuboid, got)
					if want := wantCounts(snap, cuboid); !sameCounts(got, want) {
						t.Fatalf("limit %d cuboid %v: rolled up %v, want %v", limit, cuboid, got, want)
					}
				}
				plan.Close()
			}
		}
	})
}
