package rapminer

import (
	"math"
	"sort"

	"repro/internal/kpi"
)

// AttributeCP pairs an attribute index with its Classification Power.
type AttributeCP struct {
	Attr int
	CP   float64
}

// ClassificationPower computes CP_attr (Eq. 1 of the paper): the normalized
// information gain obtained when the anomalous/normal labeling of the leaf
// dataset D is partitioned by the elements of attribute attr.
//
//	CP_attr = (Info(D) - Info_attr(D)) / Info(D)
//
// When Info(D) is zero (no anomalies, or every leaf anomalous) no attribute
// can reduce entropy and CP is defined as 0.
func ClassificationPower(s *kpi.Snapshot, attr int) float64 {
	// Eq. 1 needs only counts: |D|, the anomalous total, and per element of
	// attr its leaves and anomalous leaves. The snapshot keeps all of them —
	// the per-element totals on the columnar frame, the anomalous ones as
	// the lengths of the inverted postings — patched in place as deltas and
	// relabels land, so CP costs O(cardinality) and never walks the leaves.
	total := s.Len()
	if total == 0 {
		return 0
	}
	anomalous := s.NumAnomalous()
	infoD := binaryEntropy(float64(anomalous) / float64(total))
	if infoD == 0 {
		return 0
	}

	branchAnom := s.AnomalousPostings()[attr]
	var infoAttr float64
	for i, n := range s.ElemCounts()[attr] {
		if n == 0 {
			continue
		}
		w := float64(n) / float64(total)
		infoAttr += w * binaryEntropy(float64(len(branchAnom[i]))/float64(n))
	}
	cp := (infoD - infoAttr) / infoD
	if cp < 0 {
		// Information gain is mathematically non-negative; clamp the
		// floating-point residue of a no-gain partition.
		cp = 0
	}
	return cp
}

// ClassificationPowers computes CP for every attribute of the snapshot's
// schema, in attribute order.
func ClassificationPowers(s *kpi.Snapshot) []AttributeCP {
	out := make([]AttributeCP, s.Schema.NumAttributes())
	for a := range out {
		out[a] = AttributeCP{Attr: a, CP: ClassificationPower(s, a)}
	}
	return out
}

// SelectAttributes implements Algorithm 1 (Redundant Attributes Deletion):
// attributes whose CP does not exceed tCP are deleted (Criteria 1), and the
// survivors are returned sorted by descending CP.
//
// If deletion would remove every attribute — e.g. the anomaly labels carry
// no structure at all — the full attribute set is retained (sorted by CP)
// so the search still runs; the paper's datasets always have at least one
// attribute with positive classification power, so this is a safety net,
// not a behavioral change on the evaluated workloads.
func SelectAttributes(cps []AttributeCP, tCP float64) []int {
	sorted := append([]AttributeCP(nil), cps...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].CP > sorted[j].CP })

	var kept []int
	for _, c := range sorted {
		if c.CP > tCP {
			kept = append(kept, c.Attr)
		}
	}
	if len(kept) == 0 {
		kept = make([]int, len(sorted))
		for i, c := range sorted {
			kept[i] = c.Attr
		}
	}
	return kept
}

// binaryEntropy returns -(p log p + (1-p) log (1-p)) in nats, with the
// standard convention 0 log 0 = 0.
func binaryEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	q := 1 - p
	return -(p*math.Log(p) + q*math.Log(q))
}
