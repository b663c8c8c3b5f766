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
// diag, when non-nil, accumulates search statistics. Once ctx ends the
// search stops at the next cuboid boundary and returns the best-so-far
// candidates with a non-empty degraded reason.
//
// Concurrency model: the expensive part of a run — the count-only
// group-bys of its cuboids — is driven toward a single pass over the
// snapshot's columnar leaf store: before layer 1 the search scans the
// leaves once into the finest materializable base cuboid
// (kpi.RollupPlan), and every cuboid the base refines — across all layers
// — is served by exact integer roll-up over that array, with zero further
// leaf reads. A cuboid outside the base is counted by its own columnar
// scan (kpi.ScanCuboid) when the merge loop reaches it. Both passes
// partition across cfg.Workers goroutines by contiguous leaf range;
// per-range partial counts merge by integer addition, which is exact and
// order-independent. The cheap per-group decisions (Criteria 2/3,
// coverage, journaling) run sequentially in cuboid order, then
// group-index order — exactly the sequential visit order, so candidates,
// scores, ranking and Diagnostics are bit-identical to a single-worker
// run. The layer barrier is preserved: no combination is judged before
// every shallower layer has been fully merged, which is what Definition 1
// and Criteria 3 rely on. Pruning and early-stop state (ancestorIndex,
// coverage) are touched only by the merging goroutine, so the parallel
// path needs no locks beyond the snapshot's internal caches.
//
// Cancellation model: the merging goroutine checks ctx through one
// localize.Poll at the top of each cuboid — the safe point every
// sequential method shares — and the scan workers check ctx.Done() inside
// scans (every few thousand leaves), so every stop lands on the cuboid
// boundary: Algorithm 2's own layer barrier is never split, and the
// candidate set at the stop point is a prefix of the sequential run's
// candidate stream. The Poll's first Stop never stops, so the first cuboid
// of the run is always merged and even an already-expired deadline yields
// the coarsest layer's best-so-far candidates.
func (m *Miner) search(ctx context.Context, snapshot *kpi.Snapshot, attrs []int, diag *Diagnostics) ([]localize.ScoredPattern, string) {
	var (
		candidates []candidate
		poll       = localize.NewPoll(ctx)
		anc        = newAncestorIndex(snapshot.Schema)
		covered    = newCoverage(snapshot)
		scanner    = layerScanner{
			snap:    snapshot,
			workers: m.workers(),
			halt:    doneHalt(ctx),
			plan:    snapshot.NewRollupPlan(attrs),
			mx:      layerScanInstruments(),
		}
		// probe is the scratch combination groups are decoded into; it is
		// cloned only when a group becomes a candidate.
		probe = kpi.NewRoot(snapshot.Schema.NumAttributes())
	)
	defer scanner.close()
	scanner.runBase()

layers:
	for layer := 1; layer <= len(attrs); layer++ {
		var stats *LayerStats
		cuboids := kpi.CuboidsAtLayer(attrs, layer)
		for ci, cuboid := range cuboids {
			// The safe point is the cuboid boundary: the merge replay is
			// sequential, so a pre-canceled context stops here
			// deterministically and a cuboid's group stream is never split.
			// The first Stop never stops, so a degraded run still carries
			// best-so-far work.
			if poll.Stop() {
				break layers
			}
			if ci == 0 {
				scanner.enterLayer(cuboids)
				if diag != nil {
					diag.Layers = append(diag.Layers, LayerStats{Layer: layer})
					stats = &diag.Layers[len(diag.Layers)-1]
					if layer == 1 {
						stats.ScanPasses = scanner.passes // the base pass
					}
				}
			}
			groups, rolled, ok := scanner.groups(cuboid, layer, layer == 1 && ci == 0)
			if !ok {
				// The scan aborted mid-pass because ctx ended; its partial
				// counts are discarded and the Poll records why.
				poll.Stop()
				break layers
			}
			if diag != nil {
				diag.CuboidsVisited++
				stats.Cuboids++
				if rolled {
					stats.RollupServed++
				} else {
					stats.ScanPasses++
					stats.FusedCuboids++
				}
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
	scanner.mx.passes.Add(float64(scanner.passes))
	if diag != nil {
		diag.Candidates = len(candidates)
		if poll.Reason != "" {
			diag.Degraded = true
			diag.DegradedReason = poll.Reason
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
	return out, poll.Reason
}

// rapScore computes Eq. 3: Confidence / sqrt(Layer). Coarser candidates win
// ties because the likelihood of being a root cause falls with depth.
func rapScore(conf float64, layer int) float64 {
	return conf / math.Sqrt(float64(layer))
}

// layerScanner produces the count-only group-bys of the search's cuboids.
// The run-level roll-up (kpi.RollupPlan) scans the leaves once, before
// layer 1, into the base cuboid's flat accumulators, and every cuboid the
// base refines is answered by mixed-radix roll-up over that array. Any
// other cuboid — its attributes too wide to materialize, or the base pass
// abandoned because ctx ended — is scanned on its own when the merge
// loop reaches it, so a search that stops early never pays for the scans
// it skips. The run's first cuboid scans without the halt hook, so a
// degraded run always merges at least one cuboid. A panic on a scan
// worker is rethrown on the merging goroutine (as *kpi.ScanPanic), where
// localize's recover turns it into the run's error.
type layerScanner struct {
	snap    *kpi.Snapshot
	workers int
	// halt is the scan workers' stop hook (doneHalt); nil when ctx can
	// never end.
	halt kpi.Halt
	// plan is the run-level roll-up; nil when no base is materializable or
	// after an aborted base pass.
	plan *kpi.RollupPlan
	buf  []kpi.GroupCount
	mx   scanMetrics
	// passes counts the run's completed passes over the leaf store: the
	// base pass plus one per scanned cuboid.
	passes int
}

// runBase runs the roll-up base pass, dropping the plan when ctx ending
// aborts it. The scan workers carry pprof labels so CPU profiles
// attribute the pass to the run's base cuboid.
func (ls *layerScanner) runBase() {
	if ls.plan == nil {
		return
	}
	start := time.Now()
	ok := false
	pprof.Do(context.Background(), pprof.Labels(
		"layer", "1",
		"rollup_base", strconv.Itoa(len(ls.plan.Base())),
	), func(context.Context) {
		ok = ls.plan.Run(ls.workers, ls.halt)
	})
	if !ok {
		ls.plan.Close()
		ls.plan = nil
		return
	}
	ls.passes++
	ls.mx.seconds.Observe(time.Since(start).Seconds())
}

// enterLayer records the roll-up telemetry of a layer the search enters:
// whether every cuboid of it is served by the base or some need a scan.
func (ls *layerScanner) enterLayer(cuboids []kpi.Cuboid) {
	for _, c := range cuboids {
		if ls.plan == nil || !ls.plan.Serves(c) {
			ls.mx.rollupFallback.Inc()
			return
		}
	}
	ls.mx.rollupLayers.Inc()
}

// groups returns cuboid c's counts, reporting whether the roll-up served
// them and ok=false when ctx ending aborted the scan. first marks the
// run's guaranteed cuboid, which scans without the halt hook.
func (ls *layerScanner) groups(c kpi.Cuboid, layer int, first bool) (groups []kpi.GroupCount, rolled, ok bool) {
	if ls.plan != nil && ls.plan.Serves(c) {
		ls.buf = ls.plan.Groups(c, ls.buf)
		return ls.buf, true, true
	}
	halt := ls.halt
	if first {
		halt = nil
	}
	start := time.Now()
	pprof.Do(context.Background(), pprof.Labels("layer", strconv.Itoa(layer)), func(context.Context) {
		ls.buf, ok = ls.snap.ScanCuboid(c, ls.buf, ls.workers, halt)
	})
	if ok {
		ls.passes++
		ls.mx.seconds.Observe(time.Since(start).Seconds())
	}
	return ls.buf, false, ok
}

// doneHalt is the scan workers' stop hook: a non-blocking receive on
// ctx.Done(). It is nil when ctx is nil or can never end, so those scans
// keep no halt-polling branch.
func doneHalt(ctx context.Context) kpi.Halt {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// close releases the base accumulators; the scanner must not be used
// afterwards.
func (ls *layerScanner) close() {
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
