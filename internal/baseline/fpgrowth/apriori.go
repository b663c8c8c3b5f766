package fpgrowth

import (
	"fmt"
	"sort"

	"repro/internal/localize"
)

// MineApriori mines the same frequent itemsets as Mine using the classic
// Apriori algorithm (Agrawal & Srikant, VLDB 1994): level-wise candidate
// generation with the downward-closure prune, one database scan per level.
// The RAPMiner paper notes that "there are many ways to realize association
// rule mining, such as Apriori and FP-growth. The efficiency of different
// implementation methods varies greatly" — this implementation exists to
// demonstrate exactly that (see BenchmarkMineVsApriori).
func MineApriori(transactions [][]Item, minSupport int) ([]Itemset, error) {
	return mineApriori(transactions, minSupport, localize.NewPoll(nil))
}

// mineApriori is MineApriori that polls before each level's candidate
// generation and, once poll stops, returns the itemsets found so far.
func mineApriori(transactions [][]Item, minSupport int, poll *localize.Poll) ([]Itemset, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("fpgrowth: minSupport %d, want >= 1", minSupport)
	}

	// Deduplicate items within transactions and index them as sets.
	txSets := make([]map[Item]struct{}, len(transactions))
	freq := make(map[Item]int)
	for i, tx := range transactions {
		set := make(map[Item]struct{}, len(tx))
		for _, it := range tx {
			if _, dup := set[it]; dup {
				continue
			}
			set[it] = struct{}{}
			freq[it]++
		}
		txSets[i] = set
	}

	// L1: frequent single items.
	var level []Itemset
	for it, n := range freq {
		if n >= minSupport {
			level = append(level, Itemset{Items: []Item{it}, Support: n})
		}
	}
	sortItemsets(level)

	var out []Itemset
	for len(level) > 0 {
		out = append(out, level...)
		if poll.Stop() {
			break
		}
		candidates := aprioriGen(level)
		if len(candidates) == 0 {
			break
		}
		// Count supports in one scan.
		counts := make([]int, len(candidates))
		for _, tx := range txSets {
		candidate:
			for ci, cand := range candidates {
				for _, it := range cand {
					if _, ok := tx[it]; !ok {
						continue candidate
					}
				}
				counts[ci]++
			}
		}
		level = level[:0]
		for ci, cand := range candidates {
			if counts[ci] >= minSupport {
				level = append(level, Itemset{Items: cand, Support: counts[ci]})
			}
		}
		sortItemsets(level)
	}
	sortItemsets(out)
	return out, nil
}

// aprioriGen joins k-itemsets sharing a (k-1)-prefix and prunes candidates
// with an infrequent subset (downward closure).
func aprioriGen(level []Itemset) [][]Item {
	frequent := make(map[string]struct{}, len(level))
	for _, is := range level {
		frequent[itemsKey(is.Items)] = struct{}{}
	}
	var candidates [][]Item
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			a, b := level[i].Items, level[j].Items
			k := len(a)
			if !samePrefix(a, b, k-1) {
				continue
			}
			lo, hi := a[k-1], b[k-1]
			if lo > hi {
				lo, hi = hi, lo
			}
			cand := append(append([]Item(nil), a[:k-1]...), lo, hi)
			if hasInfrequentSubset(cand, frequent) {
				continue
			}
			candidates = append(candidates, cand)
		}
	}
	return candidates
}

func samePrefix(a, b []Item, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// hasInfrequentSubset checks every (k-1)-subset of cand against the
// frequent set of the previous level.
func hasInfrequentSubset(cand []Item, frequent map[string]struct{}) bool {
	sub := make([]Item, 0, len(cand)-1)
	for skip := range cand {
		sub = sub[:0]
		for i, it := range cand {
			if i != skip {
				sub = append(sub, it)
			}
		}
		if _, ok := frequent[itemsKey(sub)]; !ok {
			return true
		}
	}
	return false
}

func itemsKey(items []Item) string {
	b := make([]byte, 0, len(items)*4)
	for _, it := range items {
		u := uint32(it)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return string(b)
}

func sortItemsets(sets []Itemset) {
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i].Items, sets[j].Items
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return sets[i].Support > sets[j].Support
	})
}
