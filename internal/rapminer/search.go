package rapminer

import (
	"context"
	"math"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"repro/internal/kpi"
	"repro/internal/localize"
)

// candidate is one RAP candidate found by the search, carrying the
// statistics used for ranking and the run journal.
type candidate struct {
	combo      kpi.Combination
	score      float64
	confidence float64
	layer      int
	anomalous  int
	total      int
	// key is combo.Key(), computed once before sorting so the tie-break
	// comparator does not allocate a string per comparison.
	key string
}

// search implements Algorithm 2: the anomaly-confidence-guided
// layer-by-layer top-down BFS over the cuboids of the surviving attributes.
// The result is ranked by RAPScore (Eq. 3); ties are broken toward coarser
// candidates and then toward larger anomalous support, so a genuine RAP
// always precedes a stray false-alarm leaf that happens to share its score.
// diag, when non-nil, accumulates search statistics. budget bounds the run;
// when it trips the search stops at the next cuboid boundary and returns
// the best-so-far candidates with a non-empty degraded reason.
//
// Concurrency model: the expensive part of a run — the count-only group-bys
// of its cuboids — is driven to a single pass over the snapshot's columnar
// leaf store: the first layer's prefetch scans the leaves once into the
// finest materializable base cuboid (kpi.RollupPlan), and every cuboid the
// base refines — across all layers — is served by exact integer roll-up
// over that array, with zero further leaf reads. Cuboids outside the base
// take the per-layer fused pass (kpi.LayerScan), which accumulates every
// residual cuboid of the layer simultaneously. Both passes partition across
// cfg.Workers goroutines by contiguous leaf range; per-range partial counts
// merge by integer addition, which is exact and order-independent. The cheap per-group decisions (Criteria 2/3,
// coverage, journaling) replay sequentially over the fused results in
// cuboid order, then group-index order. That merge order is exactly the
// sequential visit order, so candidates, scores, ranking and Diagnostics
// are bit-identical to a single-worker run. The layer barrier is preserved:
// no combination is judged before every shallower layer has been fully
// merged, which is what Definition 1 and Criteria 3 rely on. Pruning and
// early-stop state (ancestorIndex, coverage) are touched only by the
// merging goroutine, so the parallel path needs no locks beyond the
// snapshot's internal caches.
//
// Cancellation model: the budget is polled between cuboids by the merging
// goroutine and inside scans (every few thousand leaves) by the workers, so
// every stop lands on the cuboid boundary — Algorithm 2's own layer barrier
// is never split, and the candidate set at the stop point is a prefix of
// the sequential run's candidate stream. The first cuboid of the run is
// always merged before the budget is consulted, so even an
// already-expired deadline yields the coarsest layer's best-so-far
// candidates instead of an empty answer.
func (m *Miner) search(snapshot *kpi.Snapshot, attrs []int, diag *Diagnostics, budget *runBudget) ([]localize.ScoredPattern, string) {
	var (
		candidates []candidate
		degraded   string
		merged     int
		anc        = newAncestorIndex(snapshot.Schema)
		covered    = newCoverage(snapshot)
		scanner    = layerScanner{snap: snapshot, workers: m.workers(), halt: budget.halt()}
		mx         = layerScanInstruments()
		// probe is the scratch combination groups are decoded into; it is
		// cloned only when a group becomes a candidate.
		probe = kpi.NewRoot(snapshot.Schema.NumAttributes())
	)
	defer scanner.close()
	if m.cfg.RollupLimit >= 0 {
		// The plan is only a choice of base cuboid at this point; the one
		// leaf pass that fills it runs inside the first layer's prefetch,
		// under the run budget's halt hook.
		scanner.rollupOn = true
		scanner.plan = snapshot.NewRollupPlan(attrs, m.cfg.RollupLimit)
	}

layers:
	for layer := 1; layer <= len(attrs); layer++ {
		// The budget is checked before the fused pass as well as between
		// cuboids: an exhausted budget at a layer boundary must not pay for
		// a whole layer's scan it will never merge. The trip point is the
		// same cuboid boundary either way, so determinism is unaffected.
		if merged > 0 && budget.exceeded() {
			degraded = budget.reason
			break layers
		}
		var stats *LayerStats
		if diag != nil {
			diag.Layers = append(diag.Layers, LayerStats{Layer: layer})
			stats = &diag.Layers[len(diag.Layers)-1]
		}
		cuboids := kpi.CuboidsAtLayer(attrs, layer)
		scanStart := time.Now()
		scanner.prefetch(cuboids, layer)
		mx.seconds.Observe(time.Since(scanStart).Seconds())
		for ci, cuboid := range cuboids {
			// The budget is enforced on the cuboid boundary: the layer's
			// merge replay is sequential, so stopping here is deterministic
			// for deterministic budgets (pre-canceled context, MaxCuboids)
			// and never splits a cuboid's group stream. The first cuboid is
			// exempt so a degraded run still carries best-so-far work.
			if merged > 0 && budget.exceeded() {
				degraded = budget.reason
				break layers
			}
			groups, src, ok := scanner.groups(ci, cuboid, merged == 0)
			if !ok {
				// The scan itself aborted mid-pass (budget tripped inside a
				// large snapshot); its partial counts are discarded.
				budget.exceeded()
				if degraded = budget.reason; degraded == "" {
					degraded = DegradedDeadline
				}
				break layers
			}
			merged++
			budget.noteCuboid()
			if diag != nil {
				diag.CuboidsVisited++
				stats.Cuboids++
				stats.ScanPasses = scanner.passes
				switch src {
				case srcFused:
					stats.FusedCuboids++
				case srcRollup:
					stats.RollupServed++
				}
			}
			switch src {
			case srcFused:
				scanner.fusedMerged++
			case srcRollup:
				scanner.rollupMerged++
			}
			ix := snapshot.Indexer(cuboid)
			for _, g := range groups {
				if diag != nil {
					diag.CombinationsScanned++
					stats.Combinations++
				}
				snapshot.DecodeGroup(ix, g.Group, probe)
				// Criteria 3: descendants of an accepted RAP cannot be
				// RAPs; skip them without computing confidence.
				if anc.hasAncestor(probe, layer) {
					if diag != nil {
						diag.CombinationsPruned++
						stats.Pruned++
					}
					continue
				}
				conf := g.Confidence()
				// Criteria 2: the combination is anomalous iff its
				// confidence exceeds t_conf.
				if conf <= m.cfg.TConf {
					continue
				}
				// Definition 1 holds: all shallower cuboids were fully
				// merged before this layer, so no anomalous parent exists
				// (it would have become a candidate and pruned this
				// combination above).
				combo := probe.Clone()
				candidates = append(candidates, candidate{
					combo:      combo,
					score:      rapScore(conf, layer),
					confidence: conf,
					layer:      layer,
					anomalous:  g.Anomalous,
					total:      g.Total,
				})
				anc.add(combo, layer)
				if diag != nil {
					stats.Candidates++
				}
				// Early stop: quit as soon as the candidate set covers
				// every anomalous leaf of D.
				if covered.add(combo) {
					if diag != nil {
						diag.EarlyStopped = true
						diag.EarlyStopLayer = layer
					}
					break layers
				}
			}
		}
	}
	mx.passes.Add(float64(scanner.totalPasses))
	mx.fused.Add(float64(scanner.fusedMerged))
	if scanner.rollupLayers > 0 {
		mx.rollupLayers.Add(float64(scanner.rollupLayers))
	}
	if scanner.fallbackLayers > 0 {
		mx.rollupFallback.Add(float64(scanner.fallbackLayers))
	}
	if diag != nil {
		diag.Candidates = len(candidates)
		if degraded != "" {
			diag.Degraded = true
			diag.DegradedReason = degraded
		}
	}
	for i := range candidates {
		candidates[i].key = candidates[i].combo.Key()
	}
	sort.SliceStable(candidates, func(i, j int) bool {
		a, b := candidates[i], candidates[j]
		if a.score != b.score {
			return a.score > b.score
		}
		if a.layer != b.layer {
			return a.layer < b.layer
		}
		if a.anomalous != b.anomalous {
			return a.anomalous > b.anomalous
		}
		return a.key < b.key
	})
	out := make([]localize.ScoredPattern, len(candidates))
	for i, c := range candidates {
		out[i] = localize.ScoredPattern{Combo: c.combo, Score: c.score}
	}
	if diag != nil {
		// Journal the full candidate set in ranked order, ahead of the
		// caller's top-k truncation.
		diag.CandidateSet = make([]CandidateInfo, len(candidates))
		for i, c := range candidates {
			diag.CandidateSet[i] = CandidateInfo{
				Combo:           c.combo,
				Confidence:      c.confidence,
				Layer:           c.layer,
				RAPScore:        c.score,
				AnomalousLeaves: c.anomalous,
				TotalLeaves:     c.total,
			}
		}
	}
	return out, degraded
}

// rapScore computes Eq. 3: Confidence / sqrt(Layer). Coarser candidates win
// ties because the likelihood of being a root cause falls with depth.
func rapScore(conf float64, layer int) float64 {
	return conf / math.Sqrt(float64(layer))
}

// groupSource names where a cuboid's counts came from, for the per-layer
// strategy telemetry (LayerStats.FusedCuboids / RollupServed and the scan
// metric counters).
type groupSource int

const (
	// srcScan is the per-cuboid fallback scan in the merge loop.
	srcScan groupSource = iota
	// srcFused is the layer's fused columnar pass.
	srcFused
	// srcRollup is pure arithmetic over the run's materialized base cuboid.
	srcRollup
)

// layerScanner produces the count-only group-bys of one BFS layer. The
// primary path is the run-level roll-up (kpi.RollupPlan): the first layer's
// prefetch scans the leaves once into the base cuboid's flat accumulators,
// and every cuboid the base refines — on this layer and every deeper one —
// is answered by mixed-radix roll-up over that array, with zero further
// leaf reads. Cuboids outside the base (attributes too wide to
// materialize, or roll-up disabled) take the per-layer fused columnar pass
// (kpi.LayerScan): one scan of the leaf columns accumulates every dense
// residual cuboid of the layer at once, partitioned across the worker pool
// by leaf range. Cuboids neither engine covered — sparse domains, or
// passes a tripped budget abandoned — fall back to the per-cuboid scan in
// the merge loop, where the run's first cuboid scans without the halt hook
// so a degraded run always merges at least one cuboid. A panic on a scan
// worker is rethrown on the merging goroutine (as *kpi.ScanPanic), where
// localize's recover turns it into the run's error.
type layerScanner struct {
	snap    *kpi.Snapshot
	workers int
	halt    kpi.Halt
	// plan is the run-level roll-up engine; nil when disabled, not
	// materializable, or dropped after an aborted base pass. rollupOn
	// records that roll-up was requested, so fallback layers stay
	// observable even after the plan is dropped.
	plan     *kpi.RollupPlan
	planRan  bool
	rollupOn bool
	scan     *kpi.LayerScan
	// residx maps a layer cuboid index to its position in the residual
	// fused scan, or -1 when the roll-up plan serves it.
	residx   []int32
	residual []kpi.Cuboid
	fbuf     []kpi.GroupCount
	lazy     []kpi.GroupCount
	rbuf     []kpi.GroupCount
	// passes counts completed full passes over the leaf store for the
	// current layer (base pass, fused batches, per-cuboid fallbacks); the
	// remaining fields accumulate across the run for the scan metrics.
	passes         int
	totalPasses    int
	fusedMerged    int
	rollupMerged   int
	rollupLayers   int
	fallbackLayers int
}

// prefetch prepares the layer: it runs the roll-up base pass the first
// time through (one leaf scan for the whole run), partitions the layer's
// cuboids into roll-up-served and residual, and runs the residual fused
// pass. The scan workers carry pprof labels (layer, cuboid_count) so CPU
// profiles attribute scan time to lattice layers. A tripped budget
// abandons the in-flight pass — an aborted base pass drops the plan for
// the rest of the run — and the merge loop's per-cuboid fallback notices
// via the residual scan's Done.
func (ls *layerScanner) prefetch(cuboids []kpi.Cuboid, layer int) {
	ls.closeLayer()
	ls.passes = 0
	if ls.plan != nil && !ls.planRan {
		ls.planRan = true
		ok := false
		pprof.Do(context.Background(), pprof.Labels(
			"layer", strconv.Itoa(layer),
			"rollup_base", strconv.Itoa(len(ls.plan.Base())),
		), func(context.Context) {
			ok = ls.plan.Run(ls.workers, ls.halt)
		})
		if ok {
			ls.passes += ls.plan.Passes()
			ls.totalPasses += ls.plan.Passes()
		} else {
			ls.plan.Close()
			ls.plan = nil
		}
	}
	if cap(ls.residx) < len(cuboids) {
		ls.residx = make([]int32, len(cuboids))
	}
	ls.residx = ls.residx[:len(cuboids)]
	ls.residual = ls.residual[:0]
	for ci, c := range cuboids {
		if ls.plan != nil && ls.plan.Serves(c) {
			ls.residx[ci] = -1
			continue
		}
		ls.residx[ci] = int32(len(ls.residual))
		ls.residual = append(ls.residual, c)
	}
	if len(ls.residual) == 0 {
		// The whole layer rolls up from the base: no leaf access at all.
		ls.rollupLayers++
		return
	}
	if ls.rollupOn {
		ls.fallbackLayers++
	}
	ls.scan = ls.snap.NewLayerScan(ls.residual)
	pprof.Do(context.Background(), pprof.Labels(
		"layer", strconv.Itoa(layer),
		"cuboid_count", strconv.Itoa(len(ls.residual)),
	), func(context.Context) {
		ls.scan.Run(ls.workers, ls.halt)
	})
	ls.passes += ls.scan.Passes()
	ls.totalPasses += ls.scan.Passes()
}

// groups returns cuboid ci's counts, reporting which engine served them
// and ok=false when the budget aborted the fallback scan. first marks the
// run's guaranteed cuboid, which scans without the halt hook.
func (ls *layerScanner) groups(ci int, cuboid kpi.Cuboid, first bool) (groups []kpi.GroupCount, src groupSource, ok bool) {
	if ls.residx[ci] < 0 {
		ls.rbuf = ls.plan.Groups(cuboid, ls.rbuf)
		return ls.rbuf, srcRollup, true
	}
	ri := int(ls.residx[ci])
	if ls.scan != nil && ls.scan.Done(ri) {
		ls.fbuf = ls.scan.Groups(ri, ls.fbuf)
		return ls.fbuf, srcFused, true
	}
	halt := ls.halt
	if first {
		halt = nil
	}
	ls.lazy, ok = ls.snap.ScanCuboidHalt(cuboid, ls.lazy, halt)
	if ok {
		ls.passes++
		ls.totalPasses++
	}
	return ls.lazy, srcScan, ok
}

// closeLayer releases the current layer's fused accumulators back to their
// pool; the roll-up base survives across layers.
func (ls *layerScanner) closeLayer() {
	if ls.scan != nil {
		ls.scan.Close()
		ls.scan = nil
	}
}

// close releases everything, base included; the scanner must not be used
// afterwards.
func (ls *layerScanner) close() {
	ls.closeLayer()
	if ls.plan != nil {
		ls.plan.Close()
		ls.plan = nil
	}
}

// ancestorIndex answers the Criteria 3 test — "is any accepted candidate a
// strict ancestor of this combination?" — via inverted (attribute, element)
// posting lists over the candidate set. A candidate is an ancestor of the
// probe iff every one of its constrained pairs appears in the probe and it
// constrains strictly fewer attributes; the index counts per-candidate pair
// matches with generation-stamped counters, so a probe costs time
// proportional to the candidates sharing a pair with it instead of the
// former O(candidates) scan that recomputed Layer() per comparison. The
// posting lists are direct-indexed by [attribute][element code] — the
// domain is the schema, known up front — so the per-pair lookup in the
// merge loop's hottest path is two slice indexes, not a map probe.
type ancestorIndex struct {
	postings [][][]int32
	layers   []int32
	stamp    []uint64
	count    []int32
	gen      uint64
}

func newAncestorIndex(schema *kpi.Schema) *ancestorIndex {
	postings := make([][][]int32, schema.NumAttributes())
	for a := range postings {
		postings[a] = make([][]int32, schema.Cardinality(a))
	}
	return &ancestorIndex{postings: postings}
}

// add registers an accepted candidate.
func (ai *ancestorIndex) add(c kpi.Combination, layer int) {
	id := int32(len(ai.layers))
	ai.layers = append(ai.layers, int32(layer))
	ai.stamp = append(ai.stamp, 0)
	ai.count = append(ai.count, 0)
	for a, v := range c {
		if v == kpi.Wildcard {
			continue
		}
		ai.postings[a][v] = append(ai.postings[a][v], id)
	}
}

// hasAncestor reports whether any registered candidate is a strict ancestor
// of c, where probeLayer is c's constrained attribute count.
func (ai *ancestorIndex) hasAncestor(c kpi.Combination, probeLayer int) bool {
	if len(ai.layers) == 0 {
		return false
	}
	ai.gen++
	for a, v := range c {
		if v == kpi.Wildcard {
			continue
		}
		for _, id := range ai.postings[a][v] {
			if ai.stamp[id] != ai.gen {
				ai.stamp[id] = ai.gen
				ai.count[id] = 1
			} else {
				ai.count[id]++
			}
			if ai.count[id] == ai.layers[id] && int(ai.layers[id]) < probeLayer {
				return true
			}
		}
	}
	return false
}

// coverage tracks which anomalous leaves are covered by the candidate set,
// powering the early-stop check of Algorithm 2 (line 9). Covered leaves
// live in a bitset indexed by leaf position, and add walks only the probe's
// member leaves — the shortest of the snapshot's per-attribute inverted
// anomalous-leaf lists — instead of Matches-testing every anomalous leaf.
type coverage struct {
	snap     *kpi.Snapshot
	postings [][][]int32
	bits     []uint64
	left     int
}

func newCoverage(s *kpi.Snapshot) *coverage {
	return &coverage{
		snap:     s,
		postings: s.AnomalousPostings(),
		bits:     make([]uint64, (len(s.Leaves)+63)/64),
		left:     len(s.AnomalousLeafSet()),
	}
}

// add marks the anomalous leaves under c as covered and reports whether the
// whole anomalous set is now covered.
func (cv *coverage) add(c kpi.Combination) bool {
	// Every leaf under c appears in the posting list of each of c's
	// constrained attributes; walking the shortest one suffices.
	var (
		list  []int32
		found bool
	)
	for a, v := range c {
		if v == kpi.Wildcard {
			continue
		}
		p := cv.postings[a][v]
		if !found || len(p) < len(list) {
			list, found = p, true
		}
	}
	if !found {
		// Root probe: it covers the entire anomalous set. Unreachable from
		// the search (layers start at 1) but kept for safety.
		for _, i := range cv.snap.AnomalousLeafSet() {
			cv.mark(int32(i), cv.snap.Leaves[i].Combo, c)
		}
		return cv.left == 0
	}
	for _, i := range list {
		cv.mark(i, cv.snap.Leaves[i].Combo, c)
	}
	return cv.left == 0
}

// mark sets leaf i's bit when c matches it.
func (cv *coverage) mark(i int32, leaf kpi.Combination, c kpi.Combination) {
	w, b := int(i)>>6, uint64(1)<<(uint(i)&63)
	if cv.bits[w]&b != 0 {
		return
	}
	if c.Matches(leaf) {
		cv.bits[w] |= b
		cv.left--
	}
}
