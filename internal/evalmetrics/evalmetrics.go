// Package evalmetrics implements the evaluation metrics of the RAPMiner
// paper: F1-score over predicted vs. true RAP sets (Eq. 6, used on the
// Squeeze dataset where the number of RAPs is known in advance) and RC@k
// (Eq. 7, used on RAPMD where it is not), plus simple runtime accounting.
package evalmetrics

import (
	"fmt"
	"time"

	"repro/internal/kpi"
)

// SetScore accumulates exact-match statistics between predicted and true
// RAP sets across cases.
type SetScore struct {
	TP, FP, FN int
}

// Add scores one case: predictions and truth are compared by exact
// combination equality (the criterion behind Eq. 6).
func (s *SetScore) Add(pred, truth []kpi.Combination) {
	matched := make([]bool, len(truth))
	for _, p := range pred {
		hit := false
		for i, t := range truth {
			if !matched[i] && p.Equal(t) {
				matched[i] = true
				hit = true
				break
			}
		}
		if hit {
			s.TP++
		} else {
			s.FP++
		}
	}
	for _, m := range matched {
		if !m {
			s.FN++
		}
	}
}

// Precision returns TP / (TP + FP), or 0 when nothing was predicted.
func (s SetScore) Precision() float64 {
	if s.TP+s.FP == 0 {
		return 0
	}
	return float64(s.TP) / float64(s.TP+s.FP)
}

// Recall returns TP / (TP + FN), or 0 when there is no truth.
func (s SetScore) Recall() float64 {
	if s.TP+s.FN == 0 {
		return 0
	}
	return float64(s.TP) / float64(s.TP+s.FN)
}

// F1 returns the harmonic mean of precision and recall (Eq. 6).
func (s SetScore) F1() float64 {
	p, r := s.Precision(), s.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// RCAtK accumulates the RC@k recall metric of Eq. 7: the fraction of true
// RAPs that appear among the top-k recommendations, aggregated over all
// cases. Per-truth hit indicators are retained for Bootstrap.
type RCAtK struct {
	K        int
	hits     int
	numTrue  int
	perTruth []bool
}

// NewRCAtK validates k.
func NewRCAtK(k int) (*RCAtK, error) {
	if k < 1 {
		return nil, fmt.Errorf("evalmetrics: k %d, want >= 1", k)
	}
	return &RCAtK{K: k}, nil
}

// Add scores one case.
func (m *RCAtK) Add(pred, truth []kpi.Combination) {
	top := pred
	if len(top) > m.K {
		top = top[:m.K]
	}
	matched := make([]bool, len(truth))
	for _, p := range top {
		for i, t := range truth {
			if !matched[i] && p.Equal(t) {
				matched[i] = true
				m.hits++
				break
			}
		}
	}
	m.numTrue += len(truth)
	m.perTruth = append(m.perTruth, matched...)
}

// Value returns RC@k in [0, 1], or 0 before any case was added.
func (m *RCAtK) Value() float64 {
	if m.numTrue == 0 {
		return 0
	}
	return float64(m.hits) / float64(m.numTrue)
}

// Timing accumulates per-case wall-clock runtimes.
type Timing struct {
	samples []time.Duration
}

// Add records one case runtime.
func (t *Timing) Add(d time.Duration) { t.samples = append(t.samples, d) }

// Mean returns the average runtime, or 0 with no samples.
func (t *Timing) Mean() time.Duration {
	if len(t.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range t.samples {
		sum += d
	}
	return sum / time.Duration(len(t.samples))
}
