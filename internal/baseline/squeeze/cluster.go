package squeeze

import (
	"math"
	"sort"
)

// cluster is a group of leaf indexes whose deviation scores fall into one
// density mode.
type cluster struct {
	// leafIdx indexes into the snapshot's leaf slice.
	leafIdx []int
	// center is the mean deviation of the cluster.
	center float64
}

// clusterByDeviation groups the given leaves by their deviation scores with
// histogram-based density clustering: scores are binned at the configured
// width, the histogram is lightly smoothed, and every maximal run of
// non-empty bins forms one cluster. Squeeze's "horizontal assumption" —
// different failures have different anomaly magnitudes — makes the modes
// separable on datasets that honor it; on data with per-leaf random
// magnitudes (RAPMD) the modes merge or shatter, which is exactly the
// failure mode the RAPMiner paper reports.
//
// Only the non-empty bins are materialized: the scores are stably sorted
// by bin and split where two or more empty bins separate neighbours, so a
// score far from the rest (a leaf whose forecast + actual is near zero)
// costs nothing extra. A score that is not finite (NaN or ±Inf, where
// forecast + actual + Eps is zero or the deviation overflows) has no bin
// and joins no cluster: Squeeze leaves that leaf unexplained and outside
// every cluster's evaluation universe.
func clusterByDeviation(scores []float64, leafIdx []int, binWidth float64) []cluster {
	if binWidth <= 0 {
		binWidth = 0.05
	}
	type binned struct {
		bin float64
		i   int
	}
	var items []binned
	minScore := math.Inf(1)
	for i, s := range scores {
		if !math.IsNaN(s) && !math.IsInf(s, 0) {
			items = append(items, binned{i: i})
			minScore = math.Min(minScore, s)
		}
	}
	if len(items) == 0 {
		return nil
	}
	for j := range items {
		items[j].bin = math.Floor((scores[items[j].i] - minScore) / binWidth)
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].bin < items[b].bin })

	// A run of adjacent non-empty bins is one density mode; a single
	// empty bin inside a run is tolerated (smoothing), two or more
	// consecutive empty bins split the run.
	var clusters []cluster
	flush := func(run []binned) {
		c := cluster{leafIdx: make([]int, 0, len(run))}
		var sum float64
		for _, it := range run {
			c.leafIdx = append(c.leafIdx, leafIdx[it.i])
			sum += scores[it.i]
		}
		c.center = sum / float64(len(run))
		clusters = append(clusters, c)
	}
	start := 0
	for j := 1; j < len(items); j++ {
		if items[j].bin-items[j-1].bin >= 3 {
			flush(items[start:j])
			start = j
		}
	}
	flush(items[start:])

	// Largest clusters first: Squeeze explains the dominant failure mode
	// before the minor ones.
	sort.SliceStable(clusters, func(i, j int) bool {
		return len(clusters[i].leafIdx) > len(clusters[j].leafIdx)
	})
	return clusters
}
