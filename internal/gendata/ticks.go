package gendata

import (
	"fmt"
	"io"
	"math"

	"repro/internal/kpi"
)

// Tick-delta emission: TickSpec turns a StreamSpec corpus into a replayable
// stream of per-minute deltas for the continuous-localization path. Tick t's
// delta is a pure function of (seed, t, leaf index) — like the base corpus,
// it is bit-identical regardless of batching — and re-observes a configured
// fraction of the leaves with fresh actual values over stable forecasts.
// Failure windows open periodically: while one is active, the leaves under
// the spec's ground-truth RAPs deviate anomalously, so a replayed stream
// drives the full incident lifecycle (arm → open → update → resolve).
//
// Deltas carry only updates. The leaf set of a dense streamed corpus is the
// full Cartesian product, so churn (adds/removes) would change the schema's
// story; the delta engine's add/remove paths are exercised by the kpi fuzz
// instead.

// TickSpec configures delta emission over a StreamSpec.
type TickSpec struct {
	// TouchFraction is the fraction of leaves re-observed per tick, in
	// (0, 1].
	TouchFraction float64
	// FailEvery opens an injected failure window every FailEvery ticks
	// (tick numbering is 1-based; the window opens at ticks 1, 1+FailEvery,
	// ...). 0 means no injected failures.
	FailEvery int
	// FailFor is how many consecutive ticks each failure window lasts;
	// must be in [1, FailEvery] when FailEvery > 0.
	FailFor int
}

// Validate reports whether the tick spec is usable.
func (t TickSpec) Validate() error {
	if t.TouchFraction <= 0 || t.TouchFraction > 1 {
		return fmt.Errorf("gendata: touch fraction %v, want in (0, 1]", t.TouchFraction)
	}
	if t.FailEvery < 0 {
		return fmt.Errorf("gendata: FailEvery %d, want >= 0", t.FailEvery)
	}
	if t.FailEvery > 0 && (t.FailFor < 1 || t.FailFor > t.FailEvery) {
		return fmt.Errorf("gendata: FailFor %d, want in [1, %d]", t.FailFor, t.FailEvery)
	}
	return nil
}

// Failing reports whether 1-based tick falls inside an injected failure
// window.
func (t TickSpec) Failing(tick int) bool {
	if t.FailEvery <= 0 || t.FailFor <= 0 {
		return false
	}
	return (tick-1)%t.FailEvery < t.FailFor
}

// Background returns the spec with failure injection stripped: the clean
// baseline snapshot a continuous replay installs before streaming tick
// deltas (the failures arrive through the ticks, not the baseline). The
// ground-truth RAPs are still drawn from the original spec's seed, so
// s.RAPs() keeps naming the leaves the ticks will perturb.
func (s StreamSpec) Background() StreamSpec {
	s.NumRAPs = 0
	return s
}

// tickLeaf decides whether leaf i is touched at the (1-based) tick and, if
// so, derives its re-observed values. RAP-covered leaves are touched on
// every tick when failure injection is on — a failure the stream never
// re-observes could neither open nor resolve an incident.
func (s StreamSpec) tickLeaf(i, tick int, t TickSpec, raps []kpi.Combination, combo kpi.Combination) (touched bool, actual, forecast float64) {
	rem := i
	for a := len(s.Attributes) - 1; a >= 0; a-- {
		card := s.Attributes[a].Cardinality
		combo[a] = int32(rem % card)
		rem /= card
	}
	rapHit := false
	for _, rap := range raps {
		if rap.Matches(combo) {
			rapHit = true
			break
		}
	}
	base := splitmix64(uint64(s.Seed)*0x9e3779b97f4a7c15 + uint64(i))
	tb := splitmix64(base ^ splitmix64(uint64(tick)*0x517cc1b727220a95))
	touched = (rapHit && t.FailEvery > 0) ||
		unitFloat(splitmix64(tb^0x746f756368)) < t.TouchFraction
	if !touched {
		return false, 0, 0
	}
	// The forecast is the leaf's stable baseline (identical to genLeaf's);
	// only the actual value moves tick to tick.
	u1, u2 := unitFloat(base), unitFloat(splitmix64(base))
	gauss := (u1 + u2 + unitFloat(splitmix64(base^0xabcd)) + unitFloat(splitmix64(base^0x1234)) - 2) * 1.73
	f := math.Exp(3 + gauss)
	dev := -0.02 + 0.11*unitFloat(splitmix64(tb^0x6e6f726d))
	if rapHit && t.Failing(tick) {
		dev = 0.1 + 0.8*unitFloat(splitmix64(tb^0x616e6f6d))
	}
	return true, f * (1 - dev), f
}

// StreamTickJSON writes tick's delta to w in the kpi delta JSON wire format
// (readable by kpi.ReadDeltaJSON, POSTable to /v1/observe/delta) without
// materializing the update set.
func (s StreamSpec) StreamTickJSON(w io.Writer, t TickSpec, tick int) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if err := t.Validate(); err != nil {
		return err
	}
	if tick < 1 {
		return fmt.Errorf("gendata: tick %d, want >= 1", tick)
	}
	schema, err := s.Schema()
	if err != nil {
		return err
	}
	raps := s.RAPs()
	total := s.NumLeaves()
	combo := make(kpi.Combination, len(s.Attributes))
	bw := newErrWriter(w)
	bw.WriteString(`{"updates":[`)
	first := true
	for i := 0; i < total; i++ {
		touched, v, f := s.tickLeaf(i, tick, t, raps, combo)
		if !touched {
			continue
		}
		if !first {
			bw.WriteString(",")
		}
		first = false
		bw.WriteString(`{"combination":[`)
		for a, code := range combo {
			if a > 0 {
				bw.WriteString(",")
			}
			bw.WriteString(fmt.Sprintf("%q", schema.Value(a, code)))
		}
		bw.WriteString(fmt.Sprintf(`],"actual":%g,"forecast":%g}`, v, f))
		if bw.err != nil {
			return bw.err
		}
	}
	bw.WriteString("]}\n")
	return bw.err
}
