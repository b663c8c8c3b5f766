package kpi

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceGroupBy is the row-wise group-by the columnar GroupBy replaced:
// it reads every leaf's Combination and struct fields, keys the groups by
// projected combination (collision-free at any cuboid width) and returns
// them in ascending key order, each named as GroupBy names it. Sums add in
// ascending leaf order.
func referenceGroupBy(s *Snapshot, c Cuboid) []GroupStats {
	ix := s.Indexer(c)
	pos := make(map[string]int)
	var (
		out  []GroupStats
		keys []string
	)
	for i := range s.Leaves {
		l := &s.Leaves[i]
		k := string(ix.appendKey(nil, l.Combo))
		j, ok := pos[k]
		if !ok {
			j = len(out)
			pos[k] = j
			group := i
			if ix.Size() >= 0 {
				group = ix.Index(l.Combo)
			}
			out = append(out, GroupStats{Group: group})
			keys = append(keys, k)
		}
		st := &out[j]
		st.Total++
		if l.Anomalous {
			st.Anomalous++
		}
		st.Actual += l.Actual
		st.Forecast += l.Forecast
	}
	order := make([]int, len(out))
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	sorted := make([]GroupStats, len(out))
	for r, j := range order {
		sorted[r] = out[j]
	}
	return sorted
}

// groupCombo decodes a GroupBy group of cuboid c into a fresh combination.
func groupCombo(s *Snapshot, c Cuboid, g GroupStats) Combination {
	combo := make(Combination, s.Schema.NumAttributes())
	s.DecodeGroup(s.Indexer(c), g.Group, combo)
	return combo
}

// checkGroupByMatchesReference compares GroupBy with the row-wise reference
// on every cuboid of the snapshot's lattice, sums bit for bit, and checks
// each group decodes to the projection of its leaves.
func checkGroupByMatchesReference(t *testing.T, step string, s *Snapshot) {
	t.Helper()
	attrs := make([]int, s.Schema.NumAttributes())
	for a := range attrs {
		attrs[a] = a
	}
	var got []GroupStats
	for _, c := range AllCuboids(attrs) {
		got = s.GroupByAppend(c, got)
		want := referenceGroupBy(s, c)
		if len(got) != len(want) {
			t.Fatalf("%s: cuboid %v: %d groups, reference %d", step, c, len(got), len(want))
		}
		for j := range want {
			g, w := got[j], want[j]
			if g.Group != w.Group || g.Total != w.Total || g.Anomalous != w.Anomalous ||
				math.Float64bits(g.Actual) != math.Float64bits(w.Actual) ||
				math.Float64bits(g.Forecast) != math.Float64bits(w.Forecast) {
				t.Fatalf("%s: cuboid %v group %d: %+v, reference %+v", step, c, j, g, w)
			}
		}
		for _, g := range got {
			combo := groupCombo(s, c, g)
			if total, anomalous := s.SupportCount(combo); total != g.Total || anomalous != g.Anomalous {
				t.Fatalf("%s: cuboid %v: group %v decodes to %v with support (%d, %d)",
					step, c, g, combo, total, anomalous)
			}
		}
	}
}

// groupBySchema returns a schema with the given cardinalities.
func groupBySchema(cards ...int) *Schema {
	attrs := make([]Attribute, len(cards))
	for a, n := range cards {
		vals := make([]string, n)
		for v := range vals {
			vals[v] = fmt.Sprintf("a%dv%d", a, v)
		}
		attrs[a] = Attribute{Name: fmt.Sprintf("a%d", a), Values: vals}
	}
	return MustSchema(attrs...)
}

// randomLeaf draws a leaf not in seen, recording it.
func randomLeaf(r *rand.Rand, s *Schema, seen map[string]bool) Leaf {
	for {
		combo := make(Combination, s.NumAttributes())
		for a := range combo {
			combo[a] = int32(r.Intn(s.Cardinality(a)))
		}
		if seen[combo.Key()] {
			continue
		}
		seen[combo.Key()] = true
		return Leaf{
			Combo:     combo,
			Actual:    r.NormFloat64() * 1e3,
			Forecast:  r.Float64() * 1e3,
			Anomalous: r.Intn(4) == 0,
		}
	}
}

// hasRegime reports whether some cuboid of the snapshot's lattice takes
// the named GroupByAppend path.
func hasRegime(s *Snapshot, regime string) bool {
	attrs := make([]int, s.Schema.NumAttributes())
	for a := range attrs {
		attrs[a] = a
	}
	for _, c := range AllCuboids(attrs) {
		size := s.Indexer(c).Size()
		var r string
		switch {
		case size < 0:
			r = "overflow"
		case size > math.MaxInt32:
			r = "wide"
		case size > denseGroupByLimit(s.Len()):
			r = "sparse"
		default:
			r = "dense"
		}
		if r == regime {
			return true
		}
	}
	return false
}

// TestGroupByMatchesRowWiseReference is the differential test of the
// columnar group-by. It covers dense cuboids, sparse-map cuboids (domain
// past the dense bound), cuboids too wide for int32 group indexes and
// cuboids whose indexes overflow, and checks every cuboid on a fresh
// snapshot, after relabeling through InvalidateLabels and PatchLabels, and
// after delta ingestion — the columns are patched in place, so they must
// agree with Leaves after every step.
func TestGroupByMatchesRowWiseReference(t *testing.T) {
	for _, tc := range []struct {
		name   string
		schema *Schema
		leaves int
	}{
		{"dense", groupBySchema(3, 5, 4, 2), 90},
		{"sparse", groupBySchema(300, 300, 300), 200},
		{"wide", groupBySchema(56000, 56000), 150},
		{"overflow", overflowSchema(), 120},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(len(tc.name))))
			seen := make(map[string]bool)
			leaves := make([]Leaf, tc.leaves)
			for i := range leaves {
				leaves[i] = randomLeaf(r, tc.schema, seen)
			}
			snap, err := NewSnapshot(tc.schema, leaves)
			if err != nil {
				t.Fatal(err)
			}
			if !hasRegime(snap, tc.name) {
				t.Fatalf("no cuboid of the schema takes the %s path", tc.name)
			}
			checkGroupByMatchesReference(t, "fresh", snap)

			for i := range snap.Leaves {
				if r.Intn(3) == 0 {
					snap.Leaves[i].Anomalous = !snap.Leaves[i].Anomalous
				}
			}
			snap.InvalidateLabels()
			checkGroupByMatchesReference(t, "InvalidateLabels", snap)

			var flipped []int
			for i := range snap.Leaves {
				if r.Intn(5) == 0 {
					snap.Leaves[i].Anomalous = !snap.Leaves[i].Anomalous
					flipped = append(flipped, i)
				}
			}
			snap.PatchLabels(flipped)
			checkGroupByMatchesReference(t, "PatchLabels", snap)

			for tick := 0; tick < 3; tick++ {
				var d Delta
				for _, i := range r.Perm(snap.Len())[:snap.Len()/10] {
					if r.Intn(2) == 0 {
						d.Removes = append(d.Removes, snap.Leaves[i].Combo.Clone())
						delete(seen, snap.Leaves[i].Combo.Key())
						continue
					}
					d.Updates = append(d.Updates, LeafUpdate{
						Combo:    snap.Leaves[i].Combo.Clone(),
						Actual:   r.NormFloat64() * 1e3,
						Forecast: r.Float64() * 1e3,
					})
				}
				for j := 0; j < 8; j++ {
					d.Adds = append(d.Adds, randomLeaf(r, tc.schema, seen))
				}
				res, err := snap.ApplyDelta(d)
				if err != nil {
					t.Fatal(err)
				}
				if !res.PatchedFrame || !res.PatchedLabels {
					t.Fatalf("tick %d: caches rebuilt, not patched: %+v", tick, res)
				}
				checkGroupByMatchesReference(t, fmt.Sprintf("ApplyDelta tick %d", tick), snap)
			}
		})
	}
}
