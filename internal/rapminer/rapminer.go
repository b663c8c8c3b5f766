// Package rapminer implements the paper's primary contribution: the Root
// Anomaly Pattern Miner (RAPMiner, DSN 2022). It mines the coarsest
// attribute combinations that are anomalous while none of their parents are
// (RAPs), in two stages:
//
//  1. Classification-Power-based redundant attribute deletion (Algorithm 1)
//     prunes attributes that cannot appear in any RAP, shrinking the cuboid
//     lattice from 2^n - 1 to 2^(n-k) - 1 cuboids.
//  2. Anomaly-Confidence-guided layer-by-layer top-down BFS (Algorithm 2)
//     walks the remaining lattice from coarse to fine; combinations whose
//     anomaly confidence exceeds t_conf become RAP candidates, their
//     descendants are pruned (Criteria 3) and the search early-stops once
//     the candidates cover every anomalous leaf.
//
// Candidates are ranked by RAPScore = Confidence / sqrt(Layer) (Eq. 3).
package rapminer

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"

	"repro/internal/kpi"
	"repro/internal/localize"
	"repro/internal/obs"
)

// Config holds the miner's two thresholds and the ablation switch.
type Config struct {
	// TCP is t_CP: attributes with classification power <= TCP are
	// deleted before the search. The paper expresses this threshold "in
	// the form of percentage" and requires an attribute's classification
	// power to be "extremely small" before deletion; its recommended
	// range below 0.1 (percent) corresponds to fractions below 0.001.
	TCP float64
	// TConf is t_conf in (0, 1): an attribute combination whose anomaly
	// confidence exceeds TConf is anomalous (Criteria 2). The paper
	// recommends "relatively large" values above 0.5.
	TConf float64
	// DisableAttributeDeletion turns off stage 1, searching all 2^n - 1
	// cuboids. Used by the Table VI ablation.
	DisableAttributeDeletion bool
	// Workers bounds the goroutines used inside one localization run: the
	// search's passes over the leaf store (the roll-up base pass and the
	// per-cuboid scans) fan out across this many workers. The result is bit-identical for every worker count. 0 means
	// GOMAXPROCS; 1 runs fully sequential on the caller's goroutine.
	Workers int
}

// DefaultConfig returns the thresholds used in the paper's experiments:
// t_CP = 0.05% (fraction 0.0005) and t_conf = 0.8, both well inside the
// stable regions of Fig. 10.
func DefaultConfig() Config {
	return Config{TCP: 0.0005, TConf: 0.8}
}

// Miner is a configured RAPMiner instance. The zero value is not usable;
// construct with New.
type Miner struct {
	cfg Config
}

var _ localize.Localizer = (*Miner)(nil)

// New validates the configuration and returns a Miner.
func New(cfg Config) (*Miner, error) {
	if cfg.TCP < 0 || cfg.TCP >= 1 {
		return nil, fmt.Errorf("rapminer: t_CP %v out of [0, 1)", cfg.TCP)
	}
	if cfg.TConf <= 0 || cfg.TConf >= 1 {
		return nil, fmt.Errorf("rapminer: t_conf %v out of (0, 1)", cfg.TConf)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("rapminer: workers %d, want >= 0", cfg.Workers)
	}
	return &Miner{cfg: cfg}, nil
}

// workers resolves Config.Workers: 0 means GOMAXPROCS.
func (m *Miner) workers() int {
	if m.cfg.Workers > 0 {
		return m.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// MustNew is New that panics on error; for tests and static configurations.
func MustNew(cfg Config) *Miner {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements localize.Localizer.
func (m *Miner) Name() string { return "RAPMiner" }

// ErrNilSnapshot reports a nil snapshot argument.
var ErrNilSnapshot = errors.New("rapminer: nil snapshot")

// Diagnostics reports what the two stages did on one localization run —
// the observability a production deployment needs to explain its answers.
// It is a full per-run journal: Algorithm 1's per-attribute CP verdicts,
// Algorithm 2's per-layer search effort and pruning, and the complete
// candidate set with the statistics behind the Eq. 3 ranking.
type Diagnostics struct {
	// TCP and TConf echo the thresholds the run used, so a stored report
	// stays interpretable after the configuration changes.
	TCP, TConf float64
	// CPs holds every attribute's classification power, in attribute
	// order.
	CPs []AttributeCP
	// KeptAttributes are the surviving attributes in search order
	// (descending CP).
	KeptAttributes []int
	// CuboidsTotal is 2^n - 1 for the schema's n attributes;
	// CuboidsSearchable is 2^len(kept) - 1 after deletion;
	// CuboidsVisited counts cuboids actually scanned before early stop.
	CuboidsTotal, CuboidsSearchable, CuboidsVisited int
	// CombinationsScanned counts group-by rows inspected.
	CombinationsScanned int
	// CombinationsPruned counts group-by rows skipped by Criteria 3
	// (a descendant of an accepted RAP cannot be a RAP).
	CombinationsPruned int
	// Candidates counts RAP candidates found (before top-k truncation).
	Candidates int
	// Layers journals the per-layer search effort, in layer order, for
	// every layer the BFS entered.
	Layers []LayerStats
	// CandidateSet is the full candidate set in ranked order (the same
	// ranking the result uses), with the statistics behind each score.
	CandidateSet []CandidateInfo
	// EarlyStopped reports whether candidate coverage ended the search
	// before the lattice was exhausted; EarlyStopLayer is the layer the
	// stop fired on (0 when the search ran to completion).
	EarlyStopped   bool
	EarlyStopLayer int
	// Degraded reports that the run was cut off because its context ended
	// (cancellation or an expired deadline), and the candidate set holds
	// only the best-so-far prefix of the search. DegradedReason is
	// localize.DegradedCanceled or localize.DegradedDeadline.
	Degraded       bool
	DegradedReason string
}

// LayerStats is one lattice layer's search effort (Algorithm 2 telemetry).
type LayerStats struct {
	// Layer is the cuboid layer (number of concrete attributes).
	Layer int `json:"layer"`
	// Cuboids counts cuboids of this layer that were scanned.
	Cuboids int `json:"cuboids"`
	// Combinations counts group-by rows inspected across those cuboids.
	Combinations int `json:"combinations"`
	// Pruned counts rows skipped by Criteria 3 without computing
	// confidence.
	Pruned int `json:"pruned"`
	// Candidates counts RAP candidates accepted at this layer.
	Candidates int `json:"candidates"`
	// ScanPasses counts completed passes over the leaf store for this
	// layer, however many workers partitioned each: one per scanned
	// cuboid, plus the run's roll-up base pass on layer 1.
	ScanPasses int `json:"scan_passes"`
	// FusedCuboids counts cuboids of this layer whose counts came from a
	// leaf scan of their own rather than the roll-up.
	FusedCuboids int `json:"fused_cuboids"`
	// RollupServed counts cuboids of this layer whose counts were rolled
	// up from the run's materialized base cuboid — pure arithmetic over
	// the base accumulators, zero leaf reads.
	RollupServed int `json:"rollup_served"`
}

// CandidateInfo is one RAP candidate with the statistics behind its Eq. 3
// ranking.
type CandidateInfo struct {
	// Combo is the candidate's attribute combination.
	Combo kpi.Combination
	// Confidence is the anomaly confidence (anomalous / total leaves
	// under the combination, Criteria 2).
	Confidence float64
	// Layer is the cuboid layer the candidate was found at.
	Layer int
	// RAPScore is Confidence / sqrt(Layer) (Eq. 3).
	RAPScore float64
	// AnomalousLeaves and TotalLeaves are the support counts behind
	// Confidence.
	AnomalousLeaves, TotalLeaves int
}

// DeletedAttributes returns the attribute indexes removed by stage 1, in
// attribute order.
func (d Diagnostics) DeletedAttributes() []int {
	kept := make(map[int]bool, len(d.KeptAttributes))
	for _, a := range d.KeptAttributes {
		kept[a] = true
	}
	var deleted []int
	for _, cp := range d.CPs {
		if !kept[cp.Attr] {
			deleted = append(deleted, cp.Attr)
		}
	}
	return deleted
}

// Localize implements localize.Localizer: it runs both stages and returns
// the top-k RAPs by RAPScore.
func (m *Miner) Localize(snapshot *kpi.Snapshot, k int) (localize.Result, error) {
	res, _, err := m.localize(nil, snapshot, k, nil)
	return res, err
}

// LocalizeContext implements localize.Localizer: Localize under ctx,
// honoring cancellation and deadline. A run cut off mid-search returns its
// best-so-far candidates with Result.Degraded set rather than an error, so
// a tight deadline yields a usable partial answer.
func (m *Miner) LocalizeContext(ctx context.Context, snapshot *kpi.Snapshot, k int) (localize.Result, error) {
	res, _, err := m.localize(ctx, snapshot, k, nil)
	return res, err
}

// LocalizeWithDiagnosticsContext is LocalizeContext plus the run's search
// statistics. The run's two stages are recorded as child spans of whatever
// trace ctx carries, so the miner's work appears in the caller's span tree;
// a nil ctx runs untraced, as Localize does.
func (m *Miner) LocalizeWithDiagnosticsContext(ctx context.Context, snapshot *kpi.Snapshot, k int) (localize.Result, Diagnostics, error) {
	var diag Diagnostics
	res, diag, err := m.localize(ctx, snapshot, k, &diag)
	return res, diag, err
}

// localize runs both stages. diag, when non-nil, accumulates the run
// journal; ctx, when non-nil, traces the stages as spans and bounds the run
// (cancellation and deadline). A panic anywhere in the run — including on
// a search worker goroutine — is recovered into the run's error with the
// stack logged, so one poisoned snapshot fails one call, not the process.
func (m *Miner) localize(ctx context.Context, snapshot *kpi.Snapshot, k int, diag *Diagnostics) (res localize.Result, out Diagnostics, err error) {
	defer func() {
		if r := recover(); r != nil {
			val, stack := r, debug.Stack()
			if sp, ok := r.(*kpi.ScanPanic); ok {
				val, stack = sp.Val, sp.Stack
			}
			obs.Logger("rapminer").Error("localization panicked",
				slog.Any("panic", val), slog.String("stack", string(stack)))
			res, out = localize.Result{}, Diagnostics{}
			err = fmt.Errorf("rapminer: panic during localization: %v", val)
		}
	}()
	var zero Diagnostics
	if snapshot == nil {
		return localize.Result{}, zero, ErrNilSnapshot
	}
	if k <= 0 {
		return localize.Result{}, zero, fmt.Errorf("rapminer: k = %d, want > 0", k)
	}

	// The anomalous leaf set is cached on the snapshot; the search's
	// coverage check reuses it along with the inverted leaf lists.
	numAnomalous := len(snapshot.AnomalousLeafSet())
	if numAnomalous == 0 {
		return localize.Result{}, zero, nil
	}
	if numAnomalous == snapshot.Len() {
		// Every observed leaf is anomalous: the root itself is the
		// coarsest anomalous combination and it has no parents, so it
		// is the unique RAP by Definition 1.
		root := kpi.NewRoot(snapshot.Schema.NumAttributes())
		out = zero
		if diag != nil {
			diag.TCP, diag.TConf = m.cfg.TCP, m.cfg.TConf
			diag.Candidates = 1
			diag.CandidateSet = []CandidateInfo{{
				Combo: root, Confidence: 1, Layer: 0, RAPScore: 1,
				AnomalousLeaves: numAnomalous, TotalLeaves: snapshot.Len(),
			}}
			out = *diag
		}
		return localize.Result{Patterns: []localize.ScoredPattern{{
			Combo: root,
			Score: 1,
		}}}, out, nil
	}

	var span *obs.Span
	if ctx != nil {
		_, span = obs.StartSpan(ctx, "rapminer.attribute_deletion")
	}
	cps := ClassificationPowers(snapshot)
	attrs := m.selectSearchAttributes(cps)
	if span != nil {
		span.SetAttr("kept", len(attrs))
		span.SetAttr("deleted", snapshot.Schema.NumAttributes()-len(attrs))
		span.End()
	}
	if diag != nil {
		diag.TCP = m.cfg.TCP
		diag.TConf = m.cfg.TConf
		diag.CPs = cps
		diag.KeptAttributes = attrs
		diag.CuboidsTotal = kpi.NumCuboids(snapshot.Schema.NumAttributes())
		diag.CuboidsSearchable = kpi.NumCuboids(len(attrs))
	}
	if ctx != nil {
		_, span = obs.StartSpan(ctx, "rapminer.search")
	}
	patterns, degraded := m.search(ctx, snapshot, attrs, diag) // already ranked
	if span != nil {
		span.SetAttr("candidates", len(patterns))
		if degraded != "" {
			span.SetAttr("degraded", degraded)
		}
		if diag != nil {
			span.SetAttr("cuboids_visited", diag.CuboidsVisited)
			span.SetAttr("early_stopped", diag.EarlyStopped)
		}
		span.End()
	}
	if k < len(patterns) {
		patterns = patterns[:k]
	}
	out = zero
	if diag != nil {
		out = *diag
	}
	return localize.Result{
		Patterns:       patterns,
		Degraded:       degraded != "",
		DegradedReason: degraded,
	}, out, nil
}

// selectSearchAttributes runs stage 1 (or returns all attributes when the
// ablation switch is set, still ordered by CP so the search order matches).
func (m *Miner) selectSearchAttributes(cps []AttributeCP) []int {
	if !m.cfg.DisableAttributeDeletion {
		return SelectAttributes(cps, m.cfg.TCP)
	}
	return SelectAttributes(cps, -1) // keep everything: CP >= 0 > -1
}
