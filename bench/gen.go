package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/inject"
	"repro/internal/kpi"
)

// world is a synthetic failure family for the engine workloads, generated
// leaf by leaf from a seed: a product schema, the share of its leaves that
// carry traffic, and the injected root anomaly patterns. The two families
// widen the RAPMD corpus along the axes the search depends on: a sparse
// world whose roll-up base does not fit, so part of the lattice falls back
// to leaf scans, and a deep world whose RAPs sit three layers down.
type world struct {
	name    string
	cards   []int
	density float64 // share of the Cartesian product that is observed
	raps    int
	rapDim  int
}

var (
	sparseWorld = world{name: "sparse", cards: []int{20, 16, 12, 10, 8, 6}, density: 0.015, raps: 2, rapDim: 2}
	deepWorld   = world{name: "deep", cards: []int{4, 4, 3, 3, 3, 3, 3, 2}, density: 1, raps: 3, rapDim: 3}
)

// minRAPSupport is the fewest observed leaves an injected RAP may cover, so
// ground truth is never an empty or single-leaf scope.
const minRAPSupport = 5

func (w world) schema() *kpi.Schema {
	attrs := make([]kpi.Attribute, len(w.cards))
	for a, card := range w.cards {
		vals := make([]string, card)
		for j := range vals {
			vals[j] = fmt.Sprintf("%c%d", 'a'+a, j+1)
		}
		attrs[a] = kpi.Attribute{Name: fmt.Sprintf("%c", 'A'+a), Values: vals}
	}
	return kpi.MustSchema(attrs...)
}

// generate builds the world's structure for seed: leaf i of the Cartesian
// product is observed, with a log-normal volume, as a pure function of
// (seed, i); the RAPs are drawn from the seed and redrawn until each covers
// at least minRAPSupport observed leaves; the leaves under a RAP are
// labeled anomalous. revalue gives the leaves their deviations.
func (w world) generate(seed int64) (inject.Case, error) {
	schema := w.schema()
	rng := rand.New(rand.NewSource(seed))
	for attempt := 0; attempt < 100; attempt++ {
		raps := w.drawRAPs(rng)
		leaves, support := w.leaves(seed, raps)
		ok := true
		for _, n := range support {
			ok = ok && n >= minRAPSupport
		}
		if !ok {
			continue
		}
		snap, err := kpi.NewSnapshot(schema, leaves)
		if err != nil {
			return inject.Case{}, err
		}
		return revalue(inject.Case{Snapshot: snap, RAPs: raps}, seed), nil
	}
	return inject.Case{}, fmt.Errorf("%s world: no RAP draw with %d-leaf support for seed %d", w.name, minRAPSupport, seed)
}

// drawRAPs picks w.raps distinct combinations of dimension w.rapDim.
func (w world) drawRAPs(rng *rand.Rand) []kpi.Combination {
	var raps []kpi.Combination
	for len(raps) < w.raps {
		c := kpi.NewRoot(len(w.cards))
		for _, a := range rng.Perm(len(w.cards))[:w.rapDim] {
			c[a] = int32(rng.Intn(w.cards[a]))
		}
		dup := false
		for _, r := range raps {
			dup = dup || r.Equal(c)
		}
		if !dup {
			raps = append(raps, c)
		}
	}
	return raps
}

// leaves materializes the observed leaves and counts each RAP's support.
func (w world) leaves(seed int64, raps []kpi.Combination) ([]kpi.Leaf, []int) {
	total := 1
	for _, c := range w.cards {
		total *= c
	}
	support := make([]int, len(raps))
	combo := make(kpi.Combination, len(w.cards))
	var leaves []kpi.Leaf
	for i := 0; i < total; i++ {
		h := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(i))
		if w.density < 1 && unitFloat(h) >= w.density {
			continue
		}
		rem := i
		for a := len(w.cards) - 1; a >= 0; a-- {
			combo[a] = int32(rem % w.cards[a])
			rem /= w.cards[a]
		}
		gauss := (unitFloat(splitmix64(h^1)) + unitFloat(splitmix64(h^2)) +
			unitFloat(splitmix64(h^3)) + unitFloat(splitmix64(h^4)) - 2) * 1.73
		f := math.Exp(3 + gauss)
		covered := false
		for r, rap := range raps {
			if rap.Matches(combo) {
				support[r]++
				covered = true
			}
		}
		leaves = append(leaves, kpi.Leaf{Combo: combo.Clone(), Actual: f, Forecast: f, Anomalous: covered})
	}
	return leaves, support
}

// splitmix64 is a stateless 64-bit mixer: leaf i's randomness depends on
// nothing but (seed, i).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func unitFloat(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// revalue redraws every KPI value of a case from seed and keeps its
// structure: the leaves, the RAPs and the labels. Each leaf's volume is
// scaled by a factor in [0.5, 2); a leaf under a RAP then deviates by
// [0.1, 0.9] and any other leaf by [-0.02, 0.09], so the server's default
// detector labels unlabeled bodies by RAP coverage whatever the seed.
func revalue(c inject.Case, seed int64) inject.Case {
	snap := c.Snapshot.Clone()
	for i := range snap.Leaves {
		l := &snap.Leaves[i]
		h := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + uint64(i))
		f := l.Forecast * math.Exp2(2*unitFloat(splitmix64(h^1))-1)
		dev := -0.02 + 0.11*unitFloat(splitmix64(h^2))
		for _, rap := range c.RAPs {
			if rap.Matches(l.Combo) {
				dev = 0.1 + 0.8*unitFloat(splitmix64(h^3))
				break
			}
		}
		l.Forecast, l.Actual = f, f*(1-dev)
	}
	return inject.Case{Snapshot: snap, RAPs: c.RAPs}
}
