package kpi

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// referenceGroupBy is the row-wise group-by the columnar GroupBy replaced:
// it reads every leaf's Combination and struct fields, keys the groups by
// projected combination (collision-free at any cuboid width) and returns
// them in ascending key order, each named as GroupBy names it. Sums add in
// ascending leaf order. of[i] is leaf i's position in that order, the
// group Snapshot.Group gives it.
func referenceGroupBy(s *Snapshot, c Cuboid) (stats []GroupStats, of []int32) {
	ix := s.Indexer(c)
	pos := make(map[string]int)
	var (
		out  []GroupStats
		keys []string
	)
	of = make([]int32, len(s.Leaves))
	for i := range s.Leaves {
		l := &s.Leaves[i]
		k := rowKey(ix, l.Combo)
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
		of[i] = int32(j)
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
	rank := make([]int32, len(out))
	for r, j := range order {
		sorted[r] = out[j]
		rank[j] = int32(r)
	}
	for i, j := range of {
		of[i] = rank[j]
	}
	return sorted, of
}

// rowKey is a collision-free key of the leaf combination's projection onto
// ix's cuboid: each cuboid attribute's code as four big-endian bytes, so
// keys compare bytewise as the group indexes of a cuboid that does not
// overflow do.
func rowKey(ix *CuboidIndexer, leaf Combination) string {
	var key []byte
	for _, a := range ix.cuboid {
		c := uint32(leaf[a])
		key = append(key, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
	}
	return string(key)
}

// groupCombo decodes a GroupBy group of cuboid c into a fresh combination.
func groupCombo(s *Snapshot, c Cuboid, g GroupStats) Combination {
	combo := make(Combination, s.Schema.NumAttributes())
	s.DecodeGroup(s.Indexer(c), g.Group, combo)
	return combo
}

// checkGroupByMatchesReference compares GroupBy with the row-wise reference
// on every cuboid of the snapshot's lattice, sums bit for bit, and checks
// each group decodes to the projection of its leaves. It holds Group's
// numbering (Of and Names, on one Grouping reused across cuboids) to the
// reference's as well.
func checkGroupByMatchesReference(t *testing.T, step string, s *Snapshot) {
	t.Helper()
	attrs := make([]int, s.Schema.NumAttributes())
	for a := range attrs {
		attrs[a] = a
	}
	var (
		got      []GroupStats
		grouping Grouping
	)
	for _, c := range AllCuboids(attrs) {
		got = s.GroupByAppend(c, got)
		want, wantOf := referenceGroupBy(s, c)
		if !s.Group(s.Indexer(c), &grouping, nil) {
			t.Fatalf("%s: cuboid %v: Group aborted without a halt", step, c)
		}
		if len(grouping.Names) != len(want) || !slices.Equal(grouping.Of, wantOf) {
			t.Fatalf("%s: cuboid %v: Group numbers %d groups, leaf groups %v; reference %d, %v",
				step, c, len(grouping.Names), grouping.Of, len(want), wantOf)
		}
		for j, name := range grouping.Names {
			if name != want[j].Group {
				t.Fatalf("%s: cuboid %v: Group names group %d %d, reference %d", step, c, j, name, want[j].Group)
			}
		}
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

// regimeOf names the way Group numbers the groups of a cuboid of the given
// size over the given number of leaves: a rank table ("dense"), sorted
// distinct indexes ("sparse"), or byte keys for a cuboid too wide for int32
// indexes ("wide") or whose indexes overflow ("overflow"). GroupByAppend
// and ScanCuboid take their flat-array kernels in the dense regime and
// Group in the others.
func regimeOf(size, leaves int) string {
	switch {
	case size < 0:
		return "overflow"
	case size > math.MaxInt32:
		return "wide"
	case size > denseGroupByLimit(leaves):
		return "sparse"
	default:
		return "dense"
	}
}

// hasRegime reports whether some cuboid of the snapshot's lattice takes
// the named regime.
func hasRegime(s *Snapshot, regime string) bool {
	attrs := make([]int, s.Schema.NumAttributes())
	for a := range attrs {
		attrs[a] = a
	}
	for _, c := range AllCuboids(attrs) {
		if regimeOf(s.Indexer(c).Size(), s.Len()) == regime {
			return true
		}
	}
	return false
}

// TestGroupByMatchesRowWiseReference is the differential test of the
// columnar group-by and of Group's numbering. It covers dense cuboids,
// sparse cuboids (domain past the dense bound), cuboids too wide for int32
// group indexes and cuboids whose indexes overflow, and checks every
// cuboid on a fresh snapshot, after each writer (Relabel, RelabelTouched,
// Rewrite) and after delta ingestion — the columns are patched in place,
// so they must agree with Leaves after every step.
func TestGroupByMatchesRowWiseReference(t *testing.T) {
	// Squeeze's TestMatchesReferenceOnSparseWorld holds Squeeze to its
	// reference on a 2000-leaf 20×16×12×10×8×6 world; it covers Group's
	// sort numbering only while that world's full cuboid is sparse.
	world := NewCuboidIndexer(groupBySchema(20, 16, 12, 10, 8, 6), Cuboid{0, 1, 2, 3, 4, 5})
	if r := regimeOf(world.Size(), 2000); r != "sparse" {
		t.Fatalf("Squeeze's sparse world (domain %d, 2000 leaves) is %s; its reference test misses the sort numbering", world.Size(), r)
	}
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

			snap.Relabel(func(float64, float64) bool { return r.Intn(3) == 0 })
			checkGroupByMatchesReference(t, "Relabel", snap)

			var touched []int
			for i := range snap.Leaves {
				if r.Intn(5) == 0 {
					touched = append(touched, i)
				}
			}
			snap.RelabelTouched(func(float64, float64) bool { return r.Intn(2) == 0 }, touched)
			checkGroupByMatchesReference(t, "RelabelTouched", snap)

			snap.Rewrite(func(l Leaf) (float64, float64, bool) {
				return 2 * l.Actual, l.Forecast - 1, r.Intn(4) == 0
			})
			checkGroupByMatchesReference(t, "Rewrite", snap)

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
