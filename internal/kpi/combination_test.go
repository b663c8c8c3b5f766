package kpi

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCombinationLayerAndAttrs(t *testing.T) {
	tests := []struct {
		combo     Combination
		wantLayer int
		wantAttrs []int
	}{
		{Combination{Wildcard, Wildcard, Wildcard}, 0, nil},
		{Combination{0, Wildcard, Wildcard}, 1, []int{0}},
		{Combination{0, Wildcard, 1}, 2, []int{0, 2}},
		{Combination{2, 1, 0}, 3, []int{0, 1, 2}},
	}
	for _, tt := range tests {
		if got := tt.combo.Layer(); got != tt.wantLayer {
			t.Errorf("%v.Layer() = %d, want %d", tt.combo, got, tt.wantLayer)
		}
		if got := tt.combo.Attrs(); !reflect.DeepEqual(got, tt.wantAttrs) {
			t.Errorf("%v.Attrs() = %v, want %v", tt.combo, got, tt.wantAttrs)
		}
	}
}

func TestCombinationMatches(t *testing.T) {
	tests := []struct {
		name  string
		a, b  Combination
		match bool
	}{
		{"root matches anything", Combination{Wildcard, Wildcard}, Combination{0, 1}, true},
		{"exact match", Combination{0, 1}, Combination{0, 1}, true},
		{"partial match", Combination{0, Wildcard}, Combination{0, 5}, true},
		{"mismatch", Combination{0, Wildcard}, Combination{1, 5}, false},
		{"length mismatch", Combination{0}, Combination{0, 1}, false},
		{"finer does not match coarser", Combination{0, 1}, Combination{0, Wildcard}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Matches(tt.b); got != tt.match {
				t.Errorf("Matches = %v, want %v", got, tt.match)
			}
		})
	}
}

func TestIsAncestorOf(t *testing.T) {
	parent := Combination{0, Wildcard, Wildcard}
	child := Combination{0, 1, Wildcard}
	if !parent.IsAncestorOf(child) {
		t.Error("parent is not ancestor of child")
	}
	if child.IsAncestorOf(parent) {
		t.Error("child claims to be ancestor of parent")
	}
	if parent.IsAncestorOf(parent) {
		t.Error("combination is its own ancestor")
	}
	other := Combination{1, 1, Wildcard}
	if parent.IsAncestorOf(other) {
		t.Error("ancestor across differing elements")
	}
}

func TestParentsOfCombination(t *testing.T) {
	c := Combination{0, 1, Wildcard}
	parents := c.Parents()
	if len(parents) != 2 {
		t.Fatalf("len(Parents) = %d, want 2", len(parents))
	}
	want := []Combination{
		{Wildcard, 1, Wildcard},
		{0, Wildcard, Wildcard},
	}
	for i := range want {
		if !parents[i].Equal(want[i]) {
			t.Errorf("Parents[%d] = %v, want %v", i, parents[i], want[i])
		}
	}
	if got := NewRoot(3).Parents(); got != nil {
		t.Errorf("root Parents = %v, want nil", got)
	}
}

func TestProject(t *testing.T) {
	c := Combination{4, 5, 6, 7}
	p := c.Project([]int{1, 3})
	want := Combination{Wildcard, 5, Wildcard, 7}
	if !p.Equal(want) {
		t.Errorf("Project = %v, want %v", p, want)
	}
	// Original untouched.
	if !c.Equal(Combination{4, 5, 6, 7}) {
		t.Errorf("Project mutated the receiver: %v", c)
	}
}

func TestKeyUniqueness(t *testing.T) {
	// Wildcard must not collide with any valid code, and distinct
	// combinations must produce distinct keys.
	combos := []Combination{
		{Wildcard, 0},
		{0, Wildcard},
		{0, 0},
		{1, 0},
		{0, 1},
		{Wildcard, Wildcard},
	}
	seen := make(map[string]Combination)
	for _, c := range combos {
		k := c.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %v and %v", prev, c)
		}
		seen[k] = c
	}
}

// TestCompareKeyMatchesKeyOrder pins CompareKey to the string comparison
// of Key on random combinations — Wildcards, codes at and above 256 (whose
// little-endian bytes sort them before smaller codes), and mixed lengths.
func TestCompareKeyMatchesKeyOrder(t *testing.T) {
	if (Combination{256}).CompareKey(Combination{1}) >= 0 {
		t.Fatal("code 256 must sort before code 1, as its Key does")
	}
	r := rand.New(rand.NewSource(7))
	codes := []int32{Wildcard, 0, 1, 2, 255, 256, 257, 511, 65535, 65536, 1 << 24, 1<<31 - 1}
	random := func() Combination {
		c := make(Combination, 1+r.Intn(3))
		for i := range c {
			if r.Intn(2) == 0 {
				c[i] = codes[r.Intn(len(codes))]
			} else {
				c[i] = int32(r.Intn(1 << 17))
			}
		}
		return c
	}
	for n := 0; n < 20000; n++ {
		a, b := random(), random()
		if n%4 == 0 {
			b = append(a.Clone()[:len(a)-1], b[0])
		}
		want := strings.Compare(a.Key(), b.Key())
		if got := a.CompareKey(b); got != want {
			t.Fatalf("%v.CompareKey(%v) = %d, Key order says %d", a, b, got, want)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	s := testSchema(t)
	texts := []string{
		"(L1, *, *, Site1)",
		"(*, *, *, *)",
		"(L3, Fixed, IOS, Site2)",
		"(*, Wireless, *, *)",
	}
	for _, txt := range texts {
		c, err := ParseCombination(s, txt)
		if err != nil {
			t.Fatalf("ParseCombination(%q): %v", txt, err)
		}
		if got := c.Format(s); got != txt {
			t.Errorf("Format(Parse(%q)) = %q", txt, got)
		}
	}
}

func TestParseCombinationErrors(t *testing.T) {
	s := testSchema(t)
	for _, txt := range []string{"(L1, *)", "(L9, *, *, Site1)", ""} {
		if _, err := ParseCombination(s, txt); err == nil {
			t.Errorf("ParseCombination(%q) succeeded, want error", txt)
		}
	}
}

func TestMustParseCombinationPanics(t *testing.T) {
	s := testSchema(t)
	defer func() {
		if recover() == nil {
			t.Error("MustParseCombination did not panic")
		}
	}()
	MustParseCombination(s, "(bad)")
}

// randomCombo builds a random combination over nAttr attributes with codes
// in [0, card).
func randomCombo(r *rand.Rand, nAttr, card int) Combination {
	c := make(Combination, nAttr)
	for i := range c {
		if r.Intn(2) == 0 {
			c[i] = Wildcard
		} else {
			c[i] = int32(r.Intn(card))
		}
	}
	return c
}

func TestAncestorPropertyTransitivity(t *testing.T) {
	// If a is an ancestor of b and b of c, then a is an ancestor of c.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		c := randomCombo(r, 5, 4)
		// Derive b by relaxing one constrained position of c, and a by
		// relaxing one of b.
		relax := func(x Combination) Combination {
			attrs := x.Attrs()
			if len(attrs) == 0 {
				return nil
			}
			y := x.Clone()
			y[attrs[r.Intn(len(attrs))]] = Wildcard
			return y
		}
		b := relax(c)
		if b == nil {
			continue
		}
		a := relax(b)
		if a == nil {
			continue
		}
		if !b.IsAncestorOf(c) {
			t.Fatalf("b=%v not ancestor of c=%v", b, c)
		}
		if !a.IsAncestorOf(c) {
			t.Fatalf("transitivity violated: a=%v, b=%v, c=%v", a, b, c)
		}
	}
}

func TestProjectionIsIdempotentQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := randomCombo(r, 6, 5)
		attrs := []int{0, 2, 4}
		p := c.Project(attrs)
		return p.Project(attrs).Equal(p) && p.Layer() <= len(attrs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProjectionMatchesOriginalQuick(t *testing.T) {
	// A projection of a leaf always matches the leaf.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		leaf := make(Combination, 5)
		for i := range leaf {
			leaf[i] = int32(r.Intn(4))
		}
		var attrs []int
		for i := 0; i < 5; i++ {
			if r.Intn(2) == 0 {
				attrs = append(attrs, i)
			}
		}
		return leaf.Project(attrs).Matches(leaf)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
