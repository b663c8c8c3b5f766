package ensemble

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/baseline/riskloc"
	"repro/internal/kpi"
	"repro/internal/localize"
)

// fixedMember returns a canned ranking, letting tests construct exact RRF
// score ties.
type fixedMember struct {
	name     string
	patterns []localize.ScoredPattern
}

func (f fixedMember) Name() string { return f.name }

func (f fixedMember) Localize(s *kpi.Snapshot, k int) (localize.Result, error) {
	return f.LocalizeContext(context.Background(), s, k)
}

func (f fixedMember) LocalizeContext(_ context.Context, _ *kpi.Snapshot, k int) (localize.Result, error) {
	ps := f.patterns
	if k < len(ps) {
		ps = ps[:k]
	}
	out := make([]localize.ScoredPattern, len(ps))
	copy(out, ps)
	return localize.Result{Patterns: out}, nil
}

// TestTiedRRFScoresRankDeterministically pins the tie-break contract: when
// candidates end with exactly equal fused scores, the final order must be
// stable across repeated votes (lexicographic combination key, via
// SortPatterns) — never a function of map iteration order. The fixture
// makes the ties exact: two members swap the ranks of each pair, so both
// patterns of a pair accumulate the same 1/(60+1)+1/(60+2) sum (IEEE
// addition is commutative), and the vote is repeated 100 times.
func TestTiedRRFScoresRankDeterministically(t *testing.T) {
	s := testSchema()
	snap := injected(t, kpi.MustParseCombination(s, "(a1, *, *)"))

	// Two tied pairs within one layer plus a tied pair at layer 2:
	// every tie must fall through score (equal) and layer (equal) to
	// the lexicographic key.
	combos := []kpi.Combination{
		kpi.MustParseCombination(s, "(a1, *, *)"),
		kpi.MustParseCombination(s, "(a2, *, *)"),
		kpi.MustParseCombination(s, "(*, b1, *)"),
		kpi.MustParseCombination(s, "(*, b2, *)"),
		kpi.MustParseCombination(s, "(a3, b1, *)"),
		kpi.MustParseCombination(s, "(a3, b2, *)"),
	}
	forward := make([]localize.ScoredPattern, len(combos))
	backward := make([]localize.ScoredPattern, len(combos))
	for i, c := range combos {
		forward[i] = localize.ScoredPattern{Combo: c, Score: float64(len(combos) - i)}
	}
	// Pairwise swap: (0,1), (2,3), (4,5) exchange ranks between the two
	// members, producing exact fused-score ties within each pair.
	for i := 0; i < len(combos); i += 2 {
		backward[i], backward[i+1] = forward[i+1], forward[i]
	}

	l, err := New(
		fixedMember{name: "forward", patterns: forward},
		fixedMember{name: "backward", patterns: backward},
	)
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	want, err := l.Localize(snap, len(combos))
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if len(want.Patterns) != len(combos) {
		t.Fatalf("got %d patterns, want %d", len(want.Patterns), len(combos))
	}
	for i := 0; i+1 < len(want.Patterns); i += 2 {
		a, b := want.Patterns[i], want.Patterns[i+1]
		if a.Score != b.Score {
			t.Fatalf("fixture broke: patterns %d/%d not tied (%v vs %v)", i, i+1, a.Score, b.Score)
		}
		if a.Combo.Key() >= b.Combo.Key() {
			t.Fatalf("tied pair %d not in lexicographic key order: %s before %s",
				i/2, a.Combo.Format(s), b.Combo.Format(s))
		}
	}

	for run := 0; run < 100; run++ {
		got, err := l.Localize(snap, len(combos))
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: tied ranking diverged\n got %+v\nwant %+v", run, got, want)
		}
	}
}

// TestEnsembleContextPropagatesDegraded checks the context path: a
// canceled ctx reaching a member (RiskLoc here, which is also how the
// method joins the voting pool) marks the fused result degraded rather
// than erroring out.
func TestEnsembleContextPropagatesDegraded(t *testing.T) {
	snap := injected(t, kpi.MustParseCombination(testSchema(), "(a1, *, *)"))
	rl, err := riskloc.New(riskloc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(append(members(t), rl)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := l.LocalizeContext(ctx, snap, 3)
	if err != nil {
		t.Fatalf("LocalizeContext: %v", err)
	}
	if !res.Degraded {
		t.Fatal("canceled ctx did not degrade the fused result")
	}
	if res.DegradedReason == "" {
		t.Fatal("degraded fused result carries no reason")
	}
}
