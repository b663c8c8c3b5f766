package rapminer

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/gendata"
	"repro/internal/kpi"
	"repro/internal/localize"
)

// oracleGroup is one non-empty group of a cuboid, counted straight from
// the leaves.
type oracleGroup struct {
	combo            kpi.Combination
	total, anomalous int
}

// oracleGroups groups the leaves by their projection onto cuboid c, in
// ascending order of the projected codes taken in c's attribute order.
func oracleGroups(snap *kpi.Snapshot, c kpi.Cuboid) []oracleGroup {
	byKey := map[string]*oracleGroup{}
	var groups []*oracleGroup
	for _, l := range snap.Leaves {
		p := l.Combo.Project(c)
		g := byKey[p.Key()]
		if g == nil {
			g = &oracleGroup{combo: p}
			byKey[p.Key()] = g
			groups = append(groups, g)
		}
		g.total++
		if l.Anomalous {
			g.anomalous++
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		for _, a := range c {
			if x, y := groups[i].combo[a], groups[j].combo[a]; x != y {
				return x < y
			}
		}
		return false
	})
	out := make([]oracleGroup, len(groups))
	for i, g := range groups {
		out[i] = *g
	}
	return out
}

// oracleLocalize is the definitional reference for Algorithm 2 over the
// kept attributes attrs: it walks the cuboids in CuboidsAtLayer order,
// groups the leaves of each directly, prunes descendants of accepted
// candidates (Criteria 3), accepts groups whose confidence exceeds t_conf
// (Criteria 2, Definition 1), stops once the candidates cover every
// anomalous leaf, and ranks by Eq. 3 with the search's tie-breaks. It
// returns the top-k result and the run's journal; Algorithm 1's fields
// (CPs, KeptAttributes) are left for the caller to fill in.
func oracleLocalize(snap *kpi.Snapshot, attrs []int, cfg Config, k int) (localize.Result, Diagnostics) {
	var anomalous []kpi.Combination
	for _, l := range snap.Leaves {
		if l.Anomalous {
			anomalous = append(anomalous, l.Combo)
		}
	}
	var d Diagnostics
	switch len(anomalous) {
	case 0:
		return localize.Result{}, d
	case snap.Len():
		// The root is the only RAP when every leaf is anomalous.
		root := kpi.NewRoot(snap.Schema.NumAttributes())
		d.TCP, d.TConf, d.Candidates = cfg.TCP, cfg.TConf, 1
		d.CandidateSet = []CandidateInfo{{Combo: root, Confidence: 1, RAPScore: 1,
			AnomalousLeaves: len(anomalous), TotalLeaves: snap.Len()}}
		return localize.Result{Patterns: []localize.ScoredPattern{{Combo: root, Score: 1}}}, d
	}

	d.TCP, d.TConf = cfg.TCP, cfg.TConf
	d.CuboidsTotal = 1<<snap.Schema.NumAttributes() - 1
	d.CuboidsSearchable = 1<<len(attrs) - 1
	var cands []CandidateInfo
	covers := func() bool {
		for _, leaf := range anomalous {
			hit := false
			for _, c := range cands {
				hit = hit || c.Combo.Matches(leaf)
			}
			if !hit {
				return false
			}
		}
		return true
	}
search:
	for layer := 1; layer <= len(attrs); layer++ {
		d.Layers = append(d.Layers, LayerStats{Layer: layer})
		stats := &d.Layers[len(d.Layers)-1]
		for _, c := range kpi.CuboidsAtLayer(attrs, layer) {
			d.CuboidsVisited++
			stats.Cuboids++
			for _, g := range oracleGroups(snap, c) {
				d.CombinationsScanned++
				stats.Combinations++
				pruned := false
				for _, acc := range cands {
					pruned = pruned || acc.Combo.IsAncestorOf(g.combo)
				}
				if pruned {
					d.CombinationsPruned++
					stats.Pruned++
					continue
				}
				conf := float64(g.anomalous) / float64(g.total)
				if conf <= cfg.TConf {
					continue
				}
				cands = append(cands, CandidateInfo{
					Combo:           g.combo,
					Confidence:      conf,
					Layer:           layer,
					RAPScore:        conf / math.Sqrt(float64(layer)),
					AnomalousLeaves: g.anomalous,
					TotalLeaves:     g.total,
				})
				stats.Candidates++
				if covers() {
					d.EarlyStopped, d.EarlyStopLayer = true, layer
					break search
				}
			}
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.RAPScore != b.RAPScore {
			return a.RAPScore > b.RAPScore
		}
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		if a.AnomalousLeaves != b.AnomalousLeaves {
			return a.AnomalousLeaves > b.AnomalousLeaves
		}
		return a.Combo.Key() < b.Combo.Key()
	})
	d.Candidates = len(cands)
	d.CandidateSet = cands
	res := localize.Result{Patterns: []localize.ScoredPattern{}}
	for i, c := range cands {
		if i == k {
			break
		}
		res.Patterns = append(res.Patterns, localize.ScoredPattern{Combo: c.Combo, Score: c.RAPScore})
	}
	if d.CandidateSet == nil {
		d.CandidateSet = []CandidateInfo{}
	}
	return res, d
}

// scrubScanStrategy zeroes the per-layer scan-strategy telemetry
// (ScanPasses, FusedCuboids, RollupServed), which records how the counts
// were obtained rather than what the search decided.
func scrubScanStrategy(d Diagnostics) Diagnostics {
	layers := append([]LayerStats(nil), d.Layers...)
	for i := range layers {
		layers[i].ScanPasses, layers[i].FusedCuboids, layers[i].RollupServed = 0, 0, 0
	}
	d.Layers = layers
	return d
}

// checkMinerVsOracle runs the miner at each worker count and compares its
// Result and scrubbed Diagnostics with the oracle's over the kept
// attributes the miner chose.
func checkMinerVsOracle(t *testing.T, name string, snap *kpi.Snapshot, cfg Config, k int, workers []int) {
	t.Helper()
	m := MustNew(cfg)
	for _, w := range workers {
		res, diag, err := m.WithWorkers(w).LocalizeWithDiagnosticsContext(context.Background(), snap, k)
		if err != nil {
			t.Fatalf("%s workers %d: %v", name, w, err)
		}
		wantRes, wantDiag := oracleLocalize(snap, diag.KeptAttributes, cfg, k)
		if wantDiag.CuboidsTotal > 0 {
			wantDiag.CPs, wantDiag.KeptAttributes = diag.CPs, diag.KeptAttributes
		}
		if !reflect.DeepEqual(res, wantRes) {
			t.Fatalf("%s workers %d: result\n got %+v\nwant %+v", name, w, res, wantRes)
		}
		if got := scrubScanStrategy(diag); !reflect.DeepEqual(got, wantDiag) {
			t.Fatalf("%s workers %d: diagnostics\n got %+v\nwant %+v", name, w, got, wantDiag)
		}
	}
}

// checkMinerVsOracleBoth runs checkMinerVsOracle on snap and on the same
// leaves reached through ApplyDelta (deltaIngested).
func checkMinerVsOracleBoth(t *testing.T, name string, snap *kpi.Snapshot, cfg Config, k int, workers []int) {
	t.Helper()
	checkMinerVsOracle(t, name, snap, cfg, k, workers)
	checkMinerVsOracle(t, name+" via delta", deltaIngested(t, snap), cfg, k, workers)
}

// deltaIngested returns a snapshot holding snap's leaves, reached through
// ApplyDelta as a continuous tick reaches them: it starts warm (columns,
// postings and element counts built) without every third leaf, with every
// fifth holding other values and the opposite label, and with up to five
// leaves snap lacks; one delta removes those, updates the changed leaves
// back and adds the missing ones, and RelabelTouched restores the updated
// leaves' labels, as a detector relabeling the touched leaves would.
func deltaIngested(t testing.TB, snap *kpi.Snapshot) *kpi.Snapshot {
	t.Helper()
	var (
		start  []kpi.Leaf
		d      kpi.Delta
		labels []bool
	)
	present := make(map[string]bool, snap.Len())
	for i, l := range snap.Leaves {
		present[l.Combo.Key()] = true
		switch {
		case i%3 == 0:
			d.Adds = append(d.Adds, kpi.Leaf{Combo: l.Combo.Clone(), Actual: l.Actual, Forecast: l.Forecast, Anomalous: l.Anomalous})
		case i%5 == 0:
			start = append(start, kpi.Leaf{Combo: l.Combo.Clone(), Actual: l.Actual + 7, Forecast: 2 * l.Forecast, Anomalous: !l.Anomalous})
			d.Updates = append(d.Updates, kpi.LeafUpdate{Combo: l.Combo.Clone(), Actual: l.Actual, Forecast: l.Forecast})
			labels = append(labels, l.Anomalous)
		default:
			start = append(start, kpi.Leaf{Combo: l.Combo.Clone(), Actual: l.Actual, Forecast: l.Forecast, Anomalous: l.Anomalous})
		}
	}
	r := rand.New(rand.NewSource(int64(snap.Len())))
	for try := 0; try < 50 && len(d.Removes) < 5; try++ {
		c := make(kpi.Combination, snap.Schema.NumAttributes())
		for a := range c {
			c[a] = int32(r.Intn(snap.Schema.Cardinality(a)))
		}
		if !present[c.Key()] {
			present[c.Key()] = true
			start = append(start, kpi.Leaf{Combo: c, Actual: 3, Forecast: 9, Anomalous: try%2 == 0})
			d.Removes = append(d.Removes, c)
		}
	}
	ingested, err := kpi.NewSnapshot(snap.Schema, start)
	if err != nil {
		t.Fatal(err)
	}
	ingested.Columns()
	ingested.AnomalousPostings()
	ingested.ElemCounts()
	res, err := ingested.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	// RelabelTouched asks once per touched leaf, in order: the updated
	// leaves come first, so the detector answers with their labels.
	next := 0
	ingested.RelabelTouched(func(float64, float64) bool {
		next++
		return labels[next-1]
	}, res.Touched[:len(labels)])
	if ingested.Len() != snap.Len() || ingested.NumAnomalous() != snap.NumAnomalous() {
		t.Fatalf("delta-ingested snapshot: %d leaves, %d anomalous; want %d, %d",
			ingested.Len(), ingested.NumAnomalous(), snap.Len(), snap.NumAnomalous())
	}
	return ingested
}

// worldSnapshot builds a synthetic failure world: each leaf of the product
// of cards is observed with probability density, and the leaves under nRAPs
// random rapDim-dimensional patterns are labeled anomalous.
func worldSnapshot(t testing.TB, seed int64, cards []int, density float64, nRAPs, rapDim int) *kpi.Snapshot {
	t.Helper()
	attrs := make([]kpi.Attribute, len(cards))
	total := 1
	for a, card := range cards {
		vals := make([]string, card)
		for j := range vals {
			vals[j] = fmt.Sprintf("%c%d", 'a'+a, j)
		}
		attrs[a] = kpi.Attribute{Name: fmt.Sprintf("%c", 'A'+a), Values: vals}
		total *= card
	}
	r := rand.New(rand.NewSource(seed))
	raps := make([]kpi.Combination, nRAPs)
	for i := range raps {
		raps[i] = kpi.NewRoot(len(cards))
		for _, a := range r.Perm(len(cards))[:rapDim] {
			raps[i][a] = int32(r.Intn(cards[a]))
		}
	}
	var leaves []kpi.Leaf
	for i := 0; i < total; i++ {
		if r.Float64() >= density {
			continue
		}
		combo := make(kpi.Combination, len(cards))
		for a, rem := len(cards)-1, i; a >= 0; a-- {
			combo[a] = int32(rem % cards[a])
			rem /= cards[a]
		}
		leaf := kpi.Leaf{Combo: combo, Actual: 100, Forecast: 100}
		for _, rap := range raps {
			if rap.Matches(combo) {
				leaf.Anomalous, leaf.Actual = true, 20
			}
		}
		leaves = append(leaves, leaf)
	}
	snap, err := kpi.NewSnapshot(kpi.MustSchema(attrs...), leaves)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// overflowWorld has five 8000-element attributes, so the all-attributes
// cuboid's mixed-radix indexes overflow int64 and wrap. Its leaves use
// element codes 0-3 only, plus one anomalous leaf whose wrapped index
// collides with the normal leaf (0, 0, 0, 0, 0): every anomaly is isolated,
// so the search descends to that overflowing cuboid.
func overflowWorld(t testing.TB) *kpi.Snapshot {
	t.Helper()
	attrs := make([]kpi.Attribute, 5)
	for a := range attrs {
		vals := make([]string, 8000)
		for i := range vals {
			vals[i] = fmt.Sprintf("e%d", i)
		}
		attrs[a] = kpi.Attribute{Name: fmt.Sprintf("a%d", a), Values: vals}
	}
	r := rand.New(rand.NewSource(5))
	var leaves []kpi.Leaf
	for i := 0; i < 1024; i++ {
		combo := make(kpi.Combination, 5)
		for a, rem := 4, i; a >= 0; a-- {
			combo[a] = int32(rem % 4)
			rem /= 4
		}
		leaves = append(leaves, kpi.Leaf{Combo: combo, Actual: 1, Forecast: 1, Anomalous: i > 0 && r.Intn(40) == 0})
	}
	// 2^64 in radix 8000: wraps onto (0, 0, 0, 0, 0)'s index.
	leaves = append(leaves, kpi.Leaf{Combo: kpi.Combination{4503, 4797, 151, 5693, 7616}, Actual: 1, Forecast: 1, Anomalous: true})
	snap, err := kpi.NewSnapshot(kpi.MustSchema(attrs...), leaves)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Indexer(kpi.Cuboid{0, 1, 2, 3, 4}).Size() >= 0 {
		t.Fatal("premise: the full cuboid's size does not overflow")
	}
	return snap
}

// TestMinerMatchesOracle pins the search to the definitional oracle:
// identical ranked results and, up to the scan-strategy counters,
// identical Diagnostics at every worker count, on each snapshot and on its
// leaves reached through ApplyDelta. The inputs cover worlds
// served entirely by the roll-up (RAPMD, benchCase, the deep world), one
// whose roll-up base does not fit so part of its lattice is scanned (the
// sparse world), and one with no materializable base whose deepest cuboid
// overflows.
func TestMinerMatchesOracle(t *testing.T) {
	workers := []int{1, 2, 4, 8}
	cfg := DefaultConfig()
	corpus, err := gendata.RAPMD(17, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range corpus.Cases {
		checkMinerVsOracleBoth(t, fmt.Sprintf("rapmd %d", i), c.Snapshot, cfg, 10, workers)
	}
	checkMinerVsOracleBoth(t, "bench", benchCase(t), cfg, 10, workers)

	sparse := worldSnapshot(t, 3, []int{20, 16, 12, 10, 8, 6}, 0.015, 2, 2)
	_, diag, err := MustNew(cfg).LocalizeWithDiagnosticsContext(context.Background(), sparse, 10)
	if err != nil {
		t.Fatal(err)
	}
	scanned := 0
	for _, l := range diag.Layers {
		scanned += l.FusedCuboids
	}
	if scanned == 0 {
		t.Fatal("premise: the sparse world scans no cuboid")
	}
	checkMinerVsOracleBoth(t, "sparse", sparse, cfg, 10, workers)
	checkMinerVsOracleBoth(t, "deep", worldSnapshot(t, 4, []int{4, 4, 3, 3, 3, 3, 3, 2}, 1, 3, 3), cfg, 10, workers)

	full := cfg
	full.DisableAttributeDeletion = true
	wide := overflowWorld(t)
	if _, diag, err = MustNew(full).LocalizeWithDiagnosticsContext(context.Background(), wide, 10); err != nil {
		t.Fatal(err)
	}
	if diag.CuboidsVisited != diag.CuboidsSearchable {
		t.Fatalf("premise: the overflow world visits %d of %d cuboids", diag.CuboidsVisited, diag.CuboidsSearchable)
	}
	checkMinerVsOracleBoth(t, "overflow", wide, full, 10, workers)
}

// FuzzMinerVsOracle compares the miner with the oracle on small random
// worlds: 2-5 attributes of 2-6 elements, random density, one to three
// injected patterns, label noise, and Algorithm 1 on or off; each world
// fresh and reached through ApplyDelta.
func FuzzMinerVsOracle(f *testing.F) {
	f.Add(int64(1), byte(80), byte(2), byte(3), false)
	f.Add(int64(2), byte(30), byte(1), byte(0), true)
	f.Add(int64(3), byte(100), byte(3), byte(10), false)
	f.Add(int64(4), byte(5), byte(1), byte(50), true)
	f.Fuzz(func(t *testing.T, seed int64, density, nRAPs, noise byte, keepAll bool) {
		r := rand.New(rand.NewSource(seed))
		cards := make([]int, 2+r.Intn(4))
		for a := range cards {
			cards[a] = 2 + r.Intn(5)
		}
		n := 1 + int(nRAPs%3)
		snap := worldSnapshot(t, seed, cards, float64(density%101)/100, n, 1+r.Intn(len(cards)))
		// Label noise: flip a share of the labels.
		snap.Rewrite(func(l kpi.Leaf) (float64, float64, bool) {
			return l.Actual, l.Forecast, l.Anomalous != (r.Intn(100) < int(noise%30))
		})
		cfg := DefaultConfig()
		cfg.DisableAttributeDeletion = keepAll
		checkMinerVsOracleBoth(t, "fuzz", snap, cfg, 5, []int{1, 2, 4, 8})
	})
}
