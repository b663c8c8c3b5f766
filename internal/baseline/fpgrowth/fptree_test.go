package fpgrowth

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/localize"
)

// apriori is a brute-force reference miner used to cross-check FP-growth.
func apriori(transactions [][]Item, minSupport int) []Itemset {
	// Collect the item universe.
	universe := make(map[Item]struct{})
	for _, tx := range transactions {
		for _, it := range tx {
			universe[it] = struct{}{}
		}
	}
	items := make([]Item, 0, len(universe))
	for it := range universe {
		items = append(items, it)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })

	txSets := make([]map[Item]struct{}, len(transactions))
	for i, tx := range transactions {
		txSets[i] = make(map[Item]struct{}, len(tx))
		for _, it := range tx {
			txSets[i][it] = struct{}{}
		}
	}
	support := func(set []Item) int {
		n := 0
	outer:
		for _, tx := range txSets {
			for _, it := range set {
				if _, ok := tx[it]; !ok {
					continue outer
				}
			}
			n++
		}
		return n
	}

	var out []Itemset
	var rec func(start int, cur []Item)
	rec = func(start int, cur []Item) {
		for i := start; i < len(items); i++ {
			next := append(cur, items[i])
			s := support(next)
			if s >= minSupport {
				out = append(out, Itemset{Items: append([]Item(nil), next...), Support: s})
				rec(i+1, next)
			}
		}
	}
	rec(0, nil)
	return out
}

func canonicalize(sets []Itemset) []Itemset {
	out := append([]Itemset(nil), sets...)
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
		return false
	})
	return out
}

func TestMineTextbookExample(t *testing.T) {
	// The classic transaction database from Han's textbook (items I1-I5
	// renamed 1-5), mined with min_sup = 2.
	txs := [][]Item{
		{1, 2, 5},
		{2, 4},
		{2, 3},
		{1, 2, 4},
		{1, 3},
		{2, 3},
		{1, 3},
		{1, 2, 3, 5},
		{1, 2, 3},
	}
	got, err := Mine(txs, 2)
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	want := map[string]int{
		"[1]":     6,
		"[2]":     7,
		"[3]":     6,
		"[4]":     2,
		"[5]":     2,
		"[1 2]":   4,
		"[1 3]":   4,
		"[1 5]":   2,
		"[2 3]":   4,
		"[2 4]":   2,
		"[2 5]":   2,
		"[1 2 3]": 2,
		"[1 2 5]": 2,
	}
	gotMap := make(map[string]int, len(got))
	for _, is := range got {
		key := ""
		for i, it := range is.Items {
			if i > 0 {
				key += " "
			}
			key += itoa(int(it))
		}
		gotMap["["+key+"]"] = is.Support
	}
	for k, sup := range want {
		if gotMap[k] != sup {
			t.Errorf("itemset %s support = %d, want %d", k, gotMap[k], sup)
		}
	}
	if len(gotMap) != len(want) {
		t.Errorf("mined %d itemsets, want %d: %v", len(gotMap), len(want), gotMap)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestMineMatchesAprioriOnRandomData(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		nTx := 5 + r.Intn(30)
		nItems := 3 + r.Intn(6)
		txs := make([][]Item, nTx)
		for i := range txs {
			var tx []Item
			for it := 0; it < nItems; it++ {
				if r.Intn(2) == 0 {
					tx = append(tx, Item(it))
				}
			}
			txs[i] = tx
		}
		minSup := 1 + r.Intn(4)
		got, err := Mine(txs, minSup)
		if err != nil {
			t.Fatalf("Mine: %v", err)
		}
		want := apriori(txs, minSup)
		if !reflect.DeepEqual(canonicalize(got), canonicalize(want)) {
			t.Fatalf("trial %d: FP-growth and Apriori disagree\nfp:  %v\nref: %v",
				trial, canonicalize(got), canonicalize(want))
		}
	}
}

func TestMineDuplicateItemsInTransaction(t *testing.T) {
	got, err := Mine([][]Item{{1, 1, 2}, {1, 2}}, 2)
	if err != nil {
		t.Fatalf("Mine: %v", err)
	}
	for _, is := range got {
		if len(is.Items) == 1 && is.Items[0] == 1 && is.Support != 2 {
			t.Errorf("duplicate items double-counted: %+v", is)
		}
	}
}

func TestMineEmptyAndValidation(t *testing.T) {
	if _, err := Mine(nil, 0); err == nil {
		t.Error("minSupport 0 accepted")
	}
	got, err := Mine(nil, 1)
	if err != nil {
		t.Fatalf("Mine(nil): %v", err)
	}
	if len(got) != 0 {
		t.Errorf("empty database mined %d itemsets", len(got))
	}
}

func TestMineDeterministicOrder(t *testing.T) {
	txs := [][]Item{{3, 1, 2}, {2, 1}, {1, 3}}
	a, _ := Mine(txs, 1)
	b, _ := Mine(txs, 1)
	if !reflect.DeepEqual(a, b) {
		t.Error("Mine output order not deterministic")
	}
}

// Mine is mine without a context: the tests' entry to the FP-growth miner.
func Mine(transactions [][]Item, minSupport int) ([]Itemset, error) {
	return mine(transactions, minSupport, localize.NewPoll(nil))
}
