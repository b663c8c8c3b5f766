package kpi

import (
	"cmp"
	"fmt"
	"math/bits"
	"strings"
)

// Wildcard marks a position of a Combination as "*": the combination does
// not constrain that attribute.
const Wildcard int32 = -1

// WildcardToken is the textual form of Wildcard.
const WildcardToken = "*"

// Combination is an attribute combination: one code per attribute, with
// Wildcard in the unconstrained positions. A combination with no wildcards
// is a leaf (the most fine-grained granularity); the combination of all
// wildcards is the root covering the whole dataset.
type Combination []int32

// NewRoot returns the all-wildcard combination for a schema with n
// attributes.
func NewRoot(n int) Combination {
	c := make(Combination, n)
	for i := range c {
		c[i] = Wildcard
	}
	return c
}

// Clone returns a deep copy of c.
func (c Combination) Clone() Combination {
	return append(Combination(nil), c...)
}

// Layer returns the number of constrained attributes, i.e. the layer of the
// cuboid lattice the combination lives in (Fig. 2 of the paper). The root is
// layer 0; leaves of an n-attribute schema are layer n.
func (c Combination) Layer() int {
	n := 0
	for _, v := range c {
		if v != Wildcard {
			n++
		}
	}
	return n
}

// Attrs returns the sorted indexes of the constrained attributes, i.e. the
// cuboid the combination belongs to.
func (c Combination) Attrs() []int {
	var attrs []int
	for i, v := range c {
		if v != Wildcard {
			attrs = append(attrs, i)
		}
	}
	return attrs
}

// IsLeaf reports whether every attribute is constrained.
func (c Combination) IsLeaf() bool {
	for _, v := range c {
		if v == Wildcard {
			return false
		}
	}
	return true
}

// Equal reports whether c and other constrain exactly the same elements.
func (c Combination) Equal(other Combination) bool {
	if len(c) != len(other) {
		return false
	}
	for i := range c {
		if c[i] != other[i] {
			return false
		}
	}
	return true
}

// Matches reports whether other falls inside the scope described by c:
// every constrained position of c holds the same element in other. A leaf
// matched by c is one of c's most fine-grained descendants (or c itself).
func (c Combination) Matches(other Combination) bool {
	if len(c) != len(other) {
		return false
	}
	for i, v := range c {
		if v != Wildcard && v != other[i] {
			return false
		}
	}
	return true
}

// IsAncestorOf reports whether c is a strict ancestor of other in the
// parent-child DAG (Fig. 7): c matches other and constrains strictly fewer
// attributes.
func (c Combination) IsAncestorOf(other Combination) bool {
	return c.Layer() < other.Layer() && c.Matches(other)
}

// Project keeps only the attributes listed in attrs, replacing every other
// position with Wildcard. It is the group-by projection used when scanning a
// cuboid.
func (c Combination) Project(attrs []int) Combination {
	p := NewRoot(len(c))
	for _, a := range attrs {
		p[a] = c[a]
	}
	return p
}

// Parents returns the immediate parents of c: each constrained attribute
// relaxed to Wildcard in turn. The root has no parents.
func (c Combination) Parents() []Combination {
	var parents []Combination
	for i, v := range c {
		if v == Wildcard {
			continue
		}
		p := c.Clone()
		p[i] = Wildcard
		parents = append(parents, p)
	}
	return parents
}

// Key returns a compact byte-string form of c usable as a map key.
func (c Combination) Key() string {
	return string(c.AppendKey(make([]byte, 0, len(c)*4)))
}

// AppendKey appends the bytes of c.Key() to b, so a caller can probe a
// string-keyed map with m[string(b)] without building the string.
func (c Combination) AppendKey(b []byte) []byte {
	// 4 bytes per attribute, little endian; Wildcard (-1) encodes to
	// 0xffffffff which cannot collide with any valid code.
	for _, v := range c {
		u := uint32(v)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	return b
}

// CompareKey compares c.Key() with other.Key() — returning -1, 0 or +1 —
// without building either string. Key encodes each code as four
// little-endian bytes, so the order is bytewise on the byte-reversed codes,
// not numeric: code 256 (bytes 00 01 00 00) sorts before code 1 (01 00 00
// 00), and Wildcard (ff ff ff ff) after every valid code.
func (c Combination) CompareKey(other Combination) int {
	for i := range min(len(c), len(other)) {
		if x, y := bits.ReverseBytes32(uint32(c[i])), bits.ReverseBytes32(uint32(other[i])); x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return cmp.Compare(len(c), len(other))
}

// Format renders c in the paper's notation, e.g. "(L1, *, *, Site1)".
func (c Combination) Format(s *Schema) string {
	parts := make([]string, len(c))
	for i, v := range c {
		if v == Wildcard {
			parts[i] = WildcardToken
		} else {
			parts[i] = s.Value(i, v)
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// ParseCombination parses the paper notation produced by Format. Both
// "(a, *, c)" and "a,*,c" are accepted.
func ParseCombination(s *Schema, text string) (Combination, error) {
	t := strings.TrimSpace(text)
	t = strings.TrimPrefix(t, "(")
	t = strings.TrimSuffix(t, ")")
	parts := strings.Split(t, ",")
	if len(parts) != s.NumAttributes() {
		return nil, fmt.Errorf("kpi: combination %q has %d fields, schema has %d attributes",
			text, len(parts), s.NumAttributes())
	}
	c := make(Combination, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == WildcardToken {
			c[i] = Wildcard
			continue
		}
		code, ok := s.Code(i, p)
		if !ok {
			return nil, fmt.Errorf("kpi: attribute %q has no element %q",
				s.Attribute(i).Name, p)
		}
		c[i] = code
	}
	return c, nil
}

// MustParseCombination is ParseCombination that panics on error; intended
// for tests and literals.
func MustParseCombination(s *Schema, text string) Combination {
	c, err := ParseCombination(s, text)
	if err != nil {
		panic(err)
	}
	return c
}
