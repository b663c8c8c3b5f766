package fpgrowth

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/kpi"
	"repro/internal/localize"
)

// Config holds the association-rule localizer's thresholds.
type Config struct {
	// MinSupportRatio is the minimum share of anomalous leaves a
	// frequent itemset must cover.
	MinSupportRatio float64
	// MinConfidence is the minimum confidence of the rule
	// "pattern => anomalous" for the pattern to become a candidate.
	MinConfidence float64
	// UseApriori swaps the FP-growth miner for the Apriori one. Both
	// produce identical itemsets; the paper notes "the efficiency of
	// different implementation methods varies greatly", which
	// BenchmarkMineVsApriori quantifies.
	UseApriori bool
}

// DefaultConfig returns common association-rule thresholds: patterns must
// cover at least 10% of the anomalous leaves and be at least 80% anomalous
// inside their scope.
func DefaultConfig() Config {
	return Config{MinSupportRatio: 0.1, MinConfidence: 0.8}
}

// Localizer mines root anomaly patterns with association rules implemented
// on FP-growth: frequent itemsets over the anomalous leaves become
// candidate patterns, scored by confidence on the full dataset.
type Localizer struct {
	cfg Config
}

var _ localize.Localizer = (*Localizer)(nil)

// New validates the configuration.
func New(cfg Config) (*Localizer, error) {
	if cfg.MinSupportRatio <= 0 || cfg.MinSupportRatio > 1 {
		return nil, fmt.Errorf("fpgrowth: MinSupportRatio %v out of (0, 1]", cfg.MinSupportRatio)
	}
	if cfg.MinConfidence <= 0 || cfg.MinConfidence > 1 {
		return nil, fmt.Errorf("fpgrowth: MinConfidence %v out of (0, 1]", cfg.MinConfidence)
	}
	return &Localizer{cfg: cfg}, nil
}

// Name implements localize.Localizer.
func (l *Localizer) Name() string { return "FP-growth" }

// encodeItem packs an (attribute, element) pair into one Item. Attribute
// count and cardinalities are bounded well below 2^15 in every dataset this
// repository generates.
func encodeItem(attr int, code int32) Item {
	return Item(int32(attr)<<16 | code)
}

// decodeItem is the inverse of encodeItem.
func decodeItem(it Item) (attr int, code int32) {
	return int(int32(it) >> 16), int32(it) & 0xffff
}

// Localize implements localize.Localizer.
func (l *Localizer) Localize(snapshot *kpi.Snapshot, k int) (localize.Result, error) {
	return l.LocalizeContext(context.Background(), snapshot, k)
}

// LocalizeContext implements localize.Localizer. Once ctx ends, the
// conditional pattern bases not yet mined are skipped.
func (l *Localizer) LocalizeContext(ctx context.Context, snapshot *kpi.Snapshot, k int) (localize.Result, error) {
	return l.localize(ctx, snapshot, k, newCuboidCounts(snapshot).confidence)
}

// localize is LocalizeContext with the rule confidence of each itemset's
// pattern read from confidence.
func (l *Localizer) localize(ctx context.Context, snapshot *kpi.Snapshot, k int, confidence func(kpi.Combination) float64) (localize.Result, error) {
	if snapshot == nil {
		return localize.Result{}, fmt.Errorf("fpgrowth: nil snapshot")
	}
	if k <= 0 {
		return localize.Result{}, fmt.Errorf("fpgrowth: k = %d, want > 0", k)
	}

	// Transactions: the attribute-element items of each anomalous leaf.
	var transactions [][]Item
	for _, leaf := range snapshot.Leaves {
		if !leaf.Anomalous {
			continue
		}
		tx := make([]Item, len(leaf.Combo))
		for attr, code := range leaf.Combo {
			tx[attr] = encodeItem(attr, code)
		}
		transactions = append(transactions, tx)
	}
	if len(transactions) == 0 {
		return localize.Result{}, nil
	}

	minSupport := int(math.Ceil(l.cfg.MinSupportRatio * float64(len(transactions))))
	if minSupport < 1 {
		minSupport = 1
	}
	mineItemsets := mine
	if l.cfg.UseApriori {
		mineItemsets = mineApriori
	}
	poll := localize.NewPoll(ctx)
	itemsets, err := mineItemsets(transactions, minSupport, poll)
	if err != nil {
		return localize.Result{}, err
	}

	// Convert itemsets to patterns, keep those whose rule confidence on
	// the full dataset passes the threshold, and rank by support — the
	// standard association-rule ranking. Unlike RAPMiner, the rules
	// carry no parent/child reasoning: high-support descendants of a
	// large RAP legitimately crowd the top-k ahead of small co-occurring
	// RAPs, which is this baseline's characteristic failure mode on
	// mixed-dimension failures (Fig. 8b of the paper).
	patterns := make([]localize.ScoredPattern, 0, len(itemsets))
	for _, is := range itemsets {
		combo := kpi.NewRoot(snapshot.Schema.NumAttributes())
		for _, it := range is.Items {
			attr, code := decodeItem(it)
			combo[attr] = code
		}
		if confidence(combo) < l.cfg.MinConfidence {
			continue
		}
		patterns = append(patterns, localize.ScoredPattern{
			Combo: combo,
			Score: float64(is.Support) / float64(len(transactions)),
		})
	}
	localize.SortPatterns(patterns)
	if k < len(patterns) {
		patterns = patterns[:k]
	}
	return poll.Result(patterns), nil
}

// cuboidCounts reads rule confidences from count-only cuboid scans: one
// ScanCuboid per distinct itemset cuboid, memoized for the run, instead of
// a pass over every leaf per itemset. The counts are integers, so each
// confidence is the division Snapshot.Confidence makes.
type cuboidCounts struct {
	snapshot *kpi.Snapshot
	// groups holds each scanned cuboid's groups, in ascending group index.
	groups map[*kpi.CuboidIndexer][]kpi.GroupCount
}

func newCuboidCounts(snapshot *kpi.Snapshot) *cuboidCounts {
	return &cuboidCounts{snapshot: snapshot, groups: make(map[*kpi.CuboidIndexer][]kpi.GroupCount)}
}

// confidence returns Confidence(combo => Anomaly). Groups of a cuboid
// whose indexes overflow are keyed by their first leaf, not by index, so
// those cuboids keep the leaf scan.
func (cc *cuboidCounts) confidence(combo kpi.Combination) float64 {
	cuboid := kpi.Cuboid(combo.Attrs())
	ix := cc.snapshot.Indexer(cuboid)
	if ix.Size() < 0 {
		return cc.snapshot.Confidence(combo)
	}
	groups, ok := cc.groups[ix]
	if !ok {
		groups, _ = cc.snapshot.ScanCuboid(cuboid, nil, 1, nil)
		cc.groups[ix] = groups
	}
	g, found := slices.BinarySearchFunc(groups, ix.Index(combo), func(gc kpi.GroupCount, x int) int {
		return cmp.Compare(gc.Group, x)
	})
	if !found {
		return 0
	}
	return groups[g].Confidence()
}
