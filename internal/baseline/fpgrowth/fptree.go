// Package fpgrowth implements the FP-growth frequent-itemset miner (Han,
// Pei, Yin — SIGMOD 2000) and, on top of it, the association-rule root
// anomaly pattern localizer the RAPMiner paper evaluates as a baseline
// (its reference [15] searches root causes with association rule mining).
// A rule's confidence is read from count-only cuboid scans, one per
// distinct itemset cuboid in a run, rather than from a pass over every
// leaf per itemset; the counts are integers, so every confidence equals
// Snapshot.Confidence's.
//
// The localizer's safe point is the conditional pattern base: a run whose
// context ends stops before building the next one and ranks the itemsets
// mined so far.
package fpgrowth

import (
	"fmt"
	"sort"

	"repro/internal/localize"
)

// Item is an opaque integer item identifier. The localizer encodes an
// (attribute, element) pair into one Item.
type Item int32

// Itemset is a frequent itemset with its absolute support count.
type Itemset struct {
	Items   []Item // sorted ascending
	Support int
}

// mine returns every itemset with support >= minSupport in the transaction
// database, using the FP-growth algorithm (an FP-tree per conditional
// pattern base, no candidate generation). minSupport must be >= 1. Items
// within a transaction must be unique; duplicate items in one transaction
// count once. mine polls before each conditional pattern base and, once
// poll stops, returns the itemsets found so far.
func mine(transactions [][]Item, minSupport int, poll *localize.Poll) ([]Itemset, error) {
	if minSupport < 1 {
		return nil, fmt.Errorf("fpgrowth: minSupport %d, want >= 1", minSupport)
	}

	// Count global item frequencies.
	freq := make(map[Item]int)
	for _, tx := range transactions {
		seen := make(map[Item]struct{}, len(tx))
		for _, it := range tx {
			if _, dup := seen[it]; dup {
				continue
			}
			seen[it] = struct{}{}
			freq[it]++
		}
	}

	tree := newFPTree(freq, minSupport)
	for _, tx := range transactions {
		tree.insert(tree.orderTransaction(tx), 1)
	}

	var out []Itemset
	tree.growth(nil, minSupport, &out, poll)
	// Deterministic output order: by length then lexicographic items.
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Items, out[j].Items
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return out[i].Support > out[j].Support
	})
	return out, nil
}

// fpNode is one node of an FP-tree.
type fpNode struct {
	item     Item
	count    int
	parent   *fpNode
	children map[Item]*fpNode
	next     *fpNode // header-table chain of nodes holding the same item
}

// fpTree is an FP-tree plus its header table.
type fpTree struct {
	root    *fpNode
	headers map[Item]*fpNode
	freq    map[Item]int
	minSup  int
}

func newFPTree(freq map[Item]int, minSup int) *fpTree {
	return &fpTree{
		root:    &fpNode{children: make(map[Item]*fpNode)},
		headers: make(map[Item]*fpNode),
		freq:    freq,
		minSup:  minSup,
	}
}

// orderTransaction filters infrequent items and sorts the rest by
// descending global frequency (ties broken by item id) — the canonical
// FP-tree insertion order that maximizes prefix sharing.
func (t *fpTree) orderTransaction(tx []Item) []Item {
	seen := make(map[Item]struct{}, len(tx))
	items := make([]Item, 0, len(tx))
	for _, it := range tx {
		if _, dup := seen[it]; dup {
			continue
		}
		seen[it] = struct{}{}
		if t.freq[it] >= t.minSup {
			items = append(items, it)
		}
	}
	sort.Slice(items, func(i, j int) bool {
		fi, fj := t.freq[items[i]], t.freq[items[j]]
		if fi != fj {
			return fi > fj
		}
		return items[i] < items[j]
	})
	return items
}

// insert adds an ordered transaction with the given count.
func (t *fpTree) insert(items []Item, count int) {
	node := t.root
	for _, it := range items {
		child, ok := node.children[it]
		if !ok {
			child = &fpNode{
				item:     it,
				parent:   node,
				children: make(map[Item]*fpNode),
				next:     t.headers[it],
			}
			t.headers[it] = child
			node.children[it] = child
		}
		child.count += count
		node = child
	}
}

// growth recursively mines the tree. suffix is the itemset conditioned on
// so far (in reverse construction order).
func (t *fpTree) growth(suffix []Item, minSup int, out *[]Itemset, poll *localize.Poll) {
	// Visit header items in ascending frequency (classic FP-growth
	// order); deterministic via sorting.
	items := make([]Item, 0, len(t.headers))
	for it := range t.headers {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool {
		fi, fj := t.freq[items[i]], t.freq[items[j]]
		if fi != fj {
			return fi < fj
		}
		return items[i] > items[j]
	})

	for _, it := range items {
		support := 0
		for n := t.headers[it]; n != nil; n = n.next {
			support += n.count
		}
		if support < minSup {
			continue
		}
		itemset := append(append([]Item(nil), suffix...), it)
		sorted := append([]Item(nil), itemset...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		*out = append(*out, Itemset{Items: sorted, Support: support})

		// Build the conditional pattern base for it.
		if poll.Stop() {
			return
		}
		condFreq := make(map[Item]int)
		type path struct {
			items []Item
			count int
		}
		var paths []path
		for n := t.headers[it]; n != nil; n = n.next {
			var prefix []Item
			for p := n.parent; p != nil && p.parent != nil; p = p.parent {
				prefix = append(prefix, p.item)
			}
			if len(prefix) == 0 {
				continue
			}
			paths = append(paths, path{items: prefix, count: n.count})
			for _, pi := range prefix {
				condFreq[pi] += n.count
			}
		}
		if len(paths) == 0 {
			continue
		}
		cond := newFPTree(condFreq, minSup)
		for _, p := range paths {
			kept := make([]Item, 0, len(p.items))
			for _, pi := range p.items {
				if condFreq[pi] >= minSup {
					kept = append(kept, pi)
				}
			}
			sort.Slice(kept, func(i, j int) bool {
				fi, fj := condFreq[kept[i]], condFreq[kept[j]]
				if fi != fj {
					return fi > fj
				}
				return kept[i] < kept[j]
			})
			cond.insert(kept, p.count)
		}
		cond.growth(itemset, minSup, out, poll)
	}
}
