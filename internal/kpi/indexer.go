package kpi

// CuboidIndexer maps leaf combinations to dense group indexes within one
// cuboid using mixed-radix arithmetic over the cuboid's attribute
// cardinalities. It avoids the per-leaf allocations of Project+Key in hot
// group-by loops: Index is a handful of integer operations.
type CuboidIndexer struct {
	schema  *Schema
	cuboid  Cuboid
	strides []int
	cards   []int
	size    int
}

// NewCuboidIndexer builds an indexer for the cuboid. Size is the product
// of the cuboid attributes' cardinalities, or -1 when it overflows an int.
func NewCuboidIndexer(schema *Schema, cuboid Cuboid) *CuboidIndexer {
	strides := make([]int, len(cuboid))
	cards := make([]int, len(cuboid))
	size, stride := 1, 1
	for i := len(cuboid) - 1; i >= 0; i-- {
		strides[i] = stride
		cards[i] = schema.Cardinality(cuboid[i])
		stride *= cards[i]
		size = mulSize(size, cards[i])
	}
	return &CuboidIndexer{schema: schema, cuboid: cuboid, strides: strides, cards: cards, size: size}
}

// Size returns the number of distinct group indexes (the cuboid's full
// Cartesian length), or -1 when that does not fit an int: callers treat a
// negative size as too big for a dense domain.
func (ix *CuboidIndexer) Size() int { return ix.size }

// Index returns the dense group index of a leaf combination's projection
// onto the cuboid. The combination must be fully constrained on the
// cuboid's attributes. When Size() < 0 the index wraps and distinct groups
// can collide: group such cuboids with Snapshot.GroupLeaves instead.
func (ix *CuboidIndexer) Index(leaf Combination) int {
	idx := 0
	for i, a := range ix.cuboid {
		idx += int(leaf[a]) * ix.strides[i]
	}
	return idx
}

// appendKey appends a collision-free byte key of the leaf combination's
// projection onto the cuboid: each cuboid attribute's code as four
// big-endian bytes. Keys compare bytewise in the same order as the group
// indexes of a cuboid that does not overflow, so sorting groups by key
// keeps the scans' ascending group order.
func (ix *CuboidIndexer) appendKey(dst []byte, leaf Combination) []byte {
	for _, a := range ix.cuboid {
		c := uint32(leaf[a])
		dst = append(dst, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
	}
	return dst
}

// Combination reconstructs the projected combination for a group index.
func (ix *CuboidIndexer) Combination(idx int) Combination {
	c := NewRoot(ix.schema.NumAttributes())
	ix.DecodeInto(c, idx)
	return c
}

// DecodeInto writes the projected combination of group index idx into dst,
// which must have the schema's attribute count: the cuboid's attributes get
// their decoded codes, every other position becomes Wildcard. It is the
// allocation-free form of Combination for scan loops that reuse a scratch
// combination across groups.
func (ix *CuboidIndexer) DecodeInto(dst Combination, idx int) {
	for i := range dst {
		dst[i] = Wildcard
	}
	// Successive-remainder decode: strides descend left to right and
	// idx < strides[i-1], so idx/strides[i] is already reduced modulo the
	// cardinality — one division per attribute instead of a div and a mod.
	for i, a := range ix.cuboid {
		q := idx / ix.strides[i]
		idx -= q * ix.strides[i]
		dst[a] = int32(q)
	}
}
