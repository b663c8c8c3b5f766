package kpi

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Attribute is one dimension of the KPI space: a name plus the finite set of
// elements (values) the dimension can take. In the paper's CDN scenario the
// attributes are Location, AccessType, OS and Website (Table I).
type Attribute struct {
	Name   string
	Values []string
}

// Schema describes the full attribute space of a dataset. It interns every
// element name to a compact int32 code so that combinations can be compared
// and hashed without string work.
type Schema struct {
	attrs     []Attribute
	attrIndex map[string]int
	codes     []map[string]int32
	numLeaves int
}

// NewSchema validates the attribute list and builds the interning tables.
// Attribute names and the element names within one attribute must be
// non-empty and unique; every attribute needs at least one element.
func NewSchema(attrs ...Attribute) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, errors.New("kpi: schema needs at least one attribute")
	}
	s := &Schema{
		attrs:     make([]Attribute, len(attrs)),
		attrIndex: make(map[string]int, len(attrs)),
		codes:     make([]map[string]int32, len(attrs)),
		numLeaves: 1,
	}
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("kpi: attribute %d has an empty name", i)
		}
		if strings.Contains(a.Name, WildcardToken) {
			return nil, fmt.Errorf("kpi: attribute %q: name must not contain %q", a.Name, WildcardToken)
		}
		if _, dup := s.attrIndex[a.Name]; dup {
			return nil, fmt.Errorf("kpi: duplicate attribute name %q", a.Name)
		}
		if len(a.Values) == 0 {
			return nil, fmt.Errorf("kpi: attribute %q has no elements", a.Name)
		}
		codes := make(map[string]int32, len(a.Values))
		for j, v := range a.Values {
			if v == "" || v == WildcardToken {
				return nil, fmt.Errorf("kpi: attribute %q: element %d is invalid (%q)", a.Name, j, v)
			}
			if _, dup := codes[v]; dup {
				return nil, fmt.Errorf("kpi: attribute %q: duplicate element %q", a.Name, v)
			}
			codes[v] = int32(j)
		}
		// Copy the value slice so later mutation by the caller cannot
		// corrupt the schema.
		s.attrs[i] = Attribute{Name: a.Name, Values: append([]string(nil), a.Values...)}
		s.attrIndex[a.Name] = i
		s.codes[i] = codes
		s.numLeaves = mulSize(s.numLeaves, len(a.Values))
	}
	return s, nil
}

// mulSize multiplies a Cartesian size by a cardinality (at least 1),
// saturating to -1 — too big for any dense domain — once the product no
// longer fits an int.
func mulSize(size, card int) int {
	if size < 0 || size > math.MaxInt/card {
		return -1
	}
	return size * card
}

// MustSchema is NewSchema that panics on error; intended for tests and for
// static schemas known to be valid at compile time.
func MustSchema(attrs ...Attribute) *Schema {
	s, err := NewSchema(attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumAttributes returns the number of dimensions n.
func (s *Schema) NumAttributes() int { return len(s.attrs) }

// Attribute returns the i-th attribute declaration.
func (s *Schema) Attribute(i int) Attribute { return s.attrs[i] }

// AttributeNames returns the attribute names in declaration order.
func (s *Schema) AttributeNames() []string {
	names := make([]string, len(s.attrs))
	for i, a := range s.attrs {
		names[i] = a.Name
	}
	return names
}

// AttributeIndex maps an attribute name to its position.
func (s *Schema) AttributeIndex(name string) (int, bool) {
	i, ok := s.attrIndex[name]
	return i, ok
}

// Cardinality returns l(attr_i): the number of elements of attribute i.
func (s *Schema) Cardinality(i int) int { return len(s.attrs[i].Values) }

// NumLeaves returns the size of the most fine-grained cuboid: the product of
// all attribute cardinalities, or -1 when that product overflows an int.
func (s *Schema) NumLeaves() int { return s.numLeaves }

// Code interns an element name of attribute attr.
func (s *Schema) Code(attr int, value string) (int32, bool) {
	if attr < 0 || attr >= len(s.codes) {
		return 0, false
	}
	c, ok := s.codes[attr][value]
	return c, ok
}

// Value is the inverse of Code.
func (s *Schema) Value(attr int, code int32) string {
	return s.attrs[attr].Values[code]
}

// ValidCode reports whether code is a valid element code for attribute attr.
func (s *Schema) ValidCode(attr int, code int32) bool {
	return attr >= 0 && attr < len(s.attrs) && code >= 0 && int(code) < len(s.attrs[attr].Values)
}
