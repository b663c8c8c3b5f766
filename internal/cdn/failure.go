package cdn

import (
	"fmt"
	"math/rand"

	"repro/internal/kpi"
)

// FailureKind enumerates the realistic CDN failure classes the paper's
// introduction motivates: configuration errors, software defects, and
// network or server overload/failures, each with a characteristic affected
// scope.
type FailureKind int

// The failure catalog.
const (
	// NodeOutage takes an edge location down: scope (L, *, *, *).
	NodeOutage FailureKind = iota + 1
	// SiteOutage breaks one website everywhere: scope (*, *, *, Site).
	SiteOutage
	// RegionalSiteFailure breaks one website at one location — the
	// Fig. 3 scenario: scope (L, *, *, Site).
	RegionalSiteFailure
	// AccessDegradation degrades one access network at one location:
	// scope (L, AccessType, *, *).
	AccessDegradation
	// ClientBug ships a broken client for one OS against one website:
	// scope (*, *, OS, Site).
	ClientBug
)

// String names the failure kind.
func (k FailureKind) String() string {
	switch k {
	case NodeOutage:
		return "node-outage"
	case SiteOutage:
		return "site-outage"
	case RegionalSiteFailure:
		return "regional-site-failure"
	case AccessDegradation:
		return "access-degradation"
	case ClientBug:
		return "client-bug"
	default:
		return fmt.Sprintf("failure-kind-%d", int(k))
	}
}

// scopeAttrs returns the attribute indexes the kind constrains, in terms of
// the default schema layout (Location, AccessType, OS, Website).
func (k FailureKind) scopeAttrs() ([]int, error) {
	switch k {
	case NodeOutage:
		return []int{0}, nil
	case SiteOutage:
		return []int{3}, nil
	case RegionalSiteFailure:
		return []int{0, 3}, nil
	case AccessDegradation:
		return []int{0, 1}, nil
	case ClientBug:
		return []int{2, 3}, nil
	default:
		return nil, fmt.Errorf("cdn: unknown failure kind %d", int(k))
	}
}

// Failure is one concrete incident: the kind, the affected scope (its root
// anomaly pattern) and the severity — the fraction of traffic lost inside
// the scope.
type Failure struct {
	Kind     FailureKind
	Scope    kpi.Combination
	Severity float64
}

// Format renders the failure for reports.
func (f Failure) Format(s *kpi.Schema) string {
	return fmt.Sprintf("%s at %s (severity %.0f%%)", f.Kind, f.Scope.Format(s), 100*f.Severity)
}

// DrawFailure instantiates a failure of the given kind with random affected
// elements and a severity in [0.3, 0.95].
func (s *Simulator) DrawFailure(r *rand.Rand, kind FailureKind) (Failure, error) {
	attrs, err := kind.scopeAttrs()
	if err != nil {
		return Failure{}, err
	}
	scope := kpi.NewRoot(s.schema.NumAttributes())
	for _, a := range attrs {
		scope[a] = int32(r.Intn(s.schema.Cardinality(a)))
	}
	return Failure{
		Kind:     kind,
		Scope:    scope,
		Severity: 0.3 + 0.65*r.Float64(),
	}, nil
}

// ApplyFailures drops the actual values of every leaf under each failure's
// scope by that failure's severity, in place. Overlapping scopes compound.
// The forecasts are untouched, so a deviation-based detector sees exactly
// the injected loss. The snapshot's structure caches are dropped, so sums
// and scans read the new values.
func ApplyFailures(snap *kpi.Snapshot, failures []Failure) error {
	for _, f := range failures {
		if f.Severity < 0 || f.Severity > 1 {
			return fmt.Errorf("cdn: severity %v out of [0, 1]", f.Severity)
		}
		if len(f.Scope) != snap.Schema.NumAttributes() {
			return fmt.Errorf("cdn: failure scope arity %d does not match schema", len(f.Scope))
		}
	}
	for i := range snap.Leaves {
		leaf := &snap.Leaves[i]
		for _, f := range failures {
			if f.Scope.Matches(leaf.Combo) {
				leaf.Actual *= 1 - f.Severity
			}
		}
	}
	// The values changed under any columnar frame built so far.
	snap.InvalidateStructure()
	return nil
}

// Scenario draws one failure per kind, guaranteeing pairwise-unrelated
// scopes (no scope is an ancestor of another) so the set is a valid ground
// truth under Definition 1.
func (s *Simulator) Scenario(r *rand.Rand, kinds ...FailureKind) ([]Failure, error) {
	var failures []Failure
	const maxTries = 100
	for _, kind := range kinds {
		placed := false
		for try := 0; try < maxTries; try++ {
			f, err := s.DrawFailure(r, kind)
			if err != nil {
				return nil, err
			}
			related := false
			for _, prev := range failures {
				if prev.Scope.Equal(f.Scope) ||
					prev.Scope.IsAncestorOf(f.Scope) || f.Scope.IsAncestorOf(prev.Scope) {
					related = true
					break
				}
			}
			if related {
				continue
			}
			failures = append(failures, f)
			placed = true
			break
		}
		if !placed {
			return nil, fmt.Errorf("cdn: could not place %s without overlapping an earlier scope", kind)
		}
	}
	return failures, nil
}
