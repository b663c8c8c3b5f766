package kpi

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// nested returns a document whose unknown key holds n nested arrays.
func nested(n int) []byte {
	return []byte(`{"attributes":[{"name":"A","values":["x"]}],"leaves":[],"deep":` +
		strings.Repeat("[", n) + strings.Repeat("]", n) + "}")
}

func TestReadJSONNestingLimit(t *testing.T) {
	// The top-level object is level 1, so 9,999 arrays reach the
	// 10,000-level limit and 10,000 exceed it, as in encoding/json.
	for _, n := range []int{maxNestingDepth - 1, maxNestingDepth, maxNestingDepth + 1, 1_000_000} {
		doc := nested(n)
		checkSnapshotParity(t, doc)
		checkDeltaParity(t, doc)
		_, err := ReadJSON(bytes.NewReader(doc))
		if accepted := n < maxNestingDepth; (err == nil) != accepted {
			t.Errorf("%d nested arrays: err = %v, want accepted %v", n, err, accepted)
		}
	}
	// Objects nest the same way, the delta document itself being level 1.
	for _, n := range []int{maxNestingDepth, maxNestingDepth + 1} {
		deep := strings.Repeat(`{"a":`, n) + "1" + strings.Repeat("}", n)
		checkDeltaParity(t, []byte(deep))
		_, err := ReadDeltaJSON(strings.NewReader(deep), deltaParitySchema)
		if accepted := n <= maxNestingDepth; (err == nil) != accepted {
			t.Errorf("%d nested objects: err = %v, want accepted %v", n, err, accepted)
		}
	}
}

// bulkyDocument is a valid snapshot document padded to size bytes with
// whitespace and unknown keys whose values must still be validated.
func bulkyDocument(size int) []byte {
	var b bytes.Buffer
	b.Grow(size)
	b.WriteString(`{"attributes":[{"name":"A","values":["x"]}],"leaves":[{"combination":["x"],"actual":1,"forecast":1}]`)
	chunk := `,  "unknown": [ {"a": [1.5e3, "s\né", null, true, false]}, {} ]` + strings.Repeat(" ", 64) + "\n"
	for b.Len()+len(chunk)+1 < size {
		b.WriteString(chunk)
	}
	b.WriteString("}")
	return b.Bytes()
}

// falseBoundaryDocument is a valid snapshot document of about size bytes
// whose every split candidate is false: its first leaf carries an unknown
// member holding ",{" objects all the way down the array, so a part
// started at one decodes those objects as leaves until the member closes,
// while the part before it overshoots the candidate inside that leaf.
func falseBoundaryDocument(size int) []byte {
	var b bytes.Buffer
	b.Grow(size)
	b.WriteString(`{"attributes":[{"name":"A","values":["x","y"]}],"leaves":[{"combination":["x"],"actual":1,"forecast":1,"pad":[0`)
	chunk := `,{"q":[` + strings.Repeat("12345.678,", 400) + `0]}`
	for b.Len()+len(chunk)+64 < size {
		b.WriteString(chunk)
	}
	b.WriteString(`]},{"combination":["y"],"actual":2,"forecast":2}]}`)
	return b.Bytes()
}

// fastest returns the quickest of three calls of fn.
func fastest(fn func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		start := time.Now()
		fn()
		best = min(best, time.Since(start))
	}
	return best
}

func TestReadJSONCostIsLinear(t *testing.T) {
	// 64 MiB is the HTTP layer's body limit. Both bodies decode with every
	// split candidate false: bulky's candidates sit in an unknown member
	// after the leaves array, falseBoundary's inside its first leaf.
	const small, large = 8 << 20, 64 << 20
	for _, procs := range []int{1, 2} {
		for _, body := range []struct {
			name   string
			doc    func(int) []byte
			leaves int
			// blank compares rejecting as many bytes of whitespace
			// with accepting the body.
			blank bool
		}{{"bulky", bulkyDocument, 1, true}, {"false boundaries", falseBoundaryDocument, 2, false}} {
			t.Run(fmt.Sprintf("%s/procs%d", body.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				var times [2]time.Duration
				for i, size := range []int{small, large} {
					doc := body.doc(size)
					times[i] = fastest(func() {
						snap, st, err := ReadJSONStats(bytes.NewReader(doc))
						if err != nil || snap.Len() != body.leaves || st.Parts != 1 {
							t.Fatalf("%d-byte document: %v (%+v)", size, err, st)
						}
					})
				}
				// Linear scaling costs 8x; allow for noise but not for a
				// superlinear scan (64x).
				if limit := 24*times[0] + 50*time.Millisecond; times[1] > limit {
					t.Errorf("decoding 64 MiB took %v, 8 MiB %v: not linear", times[1], times[0])
				}
				if !body.blank {
					return
				}
				blank := bytes.Repeat([]byte(" "), large)
				elapsed := fastest(func() {
					if _, err := ReadJSON(bytes.NewReader(blank)); err == nil {
						t.Fatal("64 MiB of whitespace decoded")
					}
				})
				if elapsed > times[1]+time.Second {
					t.Errorf("rejecting 64 MiB of whitespace took %v", elapsed)
				}
			})
		}
	}
}

func TestDuplicateLeafOnEveryIndexPath(t *testing.T) {
	wide := make([]Attribute, 64)
	for i := range wide {
		wide[i] = Attribute{Name: fmt.Sprintf("a%d", i), Values: []string{"0", "1"}}
	}
	tests := []struct {
		name   string
		schema *Schema
		path   func(leafSet) bool
	}{
		{"bitset", MustSchema(Attribute{Name: "A", Values: elems("a", 40)}, Attribute{Name: "B", Values: elems("b", 40)}),
			func(s leafSet) bool { return s.bits != nil }},
		{"map", MustSchema(Attribute{Name: "A", Values: elems("a", 99)}, Attribute{Name: "B", Values: elems("b", 99)},
			Attribute{Name: "C", Values: elems("c", 99)}), func(s leafSet) bool { return s.packed != nil }},
		{"overflow", MustSchema(wide...), func(s leafSet) bool { return s.keys != nil }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			n := tt.schema.NumAttributes()
			leaf := func(code int32) Leaf {
				c := make(Combination, n)
				c[n-1] = code
				return Leaf{Combo: c, Actual: 1, Forecast: 1}
			}
			leaves := []Leaf{leaf(0), leaf(1), leaf(0)}
			if !tt.path(newLeafSet(tt.schema, len(leaves))) {
				t.Fatal("the duplicate check took another path")
			}
			if _, err := NewSnapshot(tt.schema, leaves[:2]); err != nil {
				t.Fatalf("distinct leaves: %v", err)
			}
			_, err := NewSnapshot(tt.schema, leaves)
			if err == nil || !strings.Contains(err.Error(), "duplicate leaf (") {
				t.Fatalf("err = %v, want a duplicate leaf", err)
			}
			// The same through the wire format.
			var doc bytes.Buffer
			if err := WriteJSON(&doc, &Snapshot{Schema: tt.schema, Leaves: leaves}); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadJSON(&doc); err == nil || !strings.Contains(err.Error(), "duplicate leaf (") {
				t.Fatalf("ReadJSON err = %v, want a duplicate leaf", err)
			}
		})
	}
}

func TestCartesianSizesSaturate(t *testing.T) {
	wide := make([]Attribute, 64)
	all := make(Cuboid, len(wide))
	for i := range wide {
		wide[i] = Attribute{Name: fmt.Sprintf("a%d", i), Values: []string{"0", "1"}}
		all[i] = i
	}
	s := MustSchema(wide...)
	if got := s.NumLeaves(); got != -1 {
		t.Errorf("NumLeaves of 2^64 = %d, want -1", got)
	}
	if got := MustSchema(wide[:62]...).NumLeaves(); got != 1<<62 {
		t.Errorf("NumLeaves of 2^62 = %d", got)
	}
	if got := NewCuboidIndexer(s, all).Size(); got != -1 {
		t.Errorf("Size of 2^64 = %d, want -1", got)
	}
	if got := NewCuboidIndexer(s, all[:62]).Size(); got != 1<<62 {
		t.Errorf("Size of 2^62 = %d", got)
	}
	// Before saturation the 2^64 domain wrapped to size 0 and the dense
	// group-by indexed past its empty accumulators.
	leaf := func(bits uint64) Leaf {
		c := make(Combination, len(wide))
		for i := range c {
			c[i] = int32(bits >> i & 1)
		}
		return Leaf{Combo: c, Actual: 1, Forecast: 2}
	}
	snap, err := NewSnapshot(s, []Leaf{leaf(0), leaf(1), leaf(1 << 63)})
	if err != nil {
		t.Fatal(err)
	}
	if groups := snap.GroupBy(all); len(groups) != 3 {
		t.Errorf("GroupBy over the full cuboid = %d groups, want 3", len(groups))
	}
	if groups, ok := snap.ScanCuboid(all, nil, 1, nil); !ok || len(groups) != 3 {
		t.Errorf("ScanCuboid over the full cuboid = %d groups (ok %v), want 3", len(groups), ok)
	}
}

// errAfter is a reader that returns data and then fails.
type errAfter struct {
	data []byte
	err  error
}

func (r *errAfter) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestReadJSONReadErrors(t *testing.T) {
	failure := errors.New("connection reset")
	doc := "{" + paritySchema + "," + parityLeaves + "}"
	// A complete document is decoded whatever the reader does after it.
	if _, err := ReadJSON(&errAfter{data: []byte(doc + "   "), err: failure}); err != nil {
		t.Errorf("complete document before a read error: %v", err)
	}
	// A truncated one reports the read error itself, so callers can still
	// tell a body over the limit from a malformed one.
	for _, cut := range []int{0, 1, len(doc) / 2, len(doc) - 1} {
		_, err := ReadJSON(&errAfter{data: []byte(doc[:cut]), err: failure})
		if !errors.Is(err, failure) || !strings.HasPrefix(err.Error(), "kpi: read json: ") {
			t.Errorf("cut at %d: err = %v, want the read error", cut, err)
		}
		_, err = ReadDeltaJSON(&errAfter{data: []byte(`{"updates":[`)[:min(cut, 12)], err: failure}, deltaParitySchema)
		if !errors.Is(err, failure) {
			t.Errorf("delta cut at %d: err = %v, want the read error", cut, err)
		}
	}
	// A syntax error before the cut is reported as such.
	if _, err := ReadJSON(&errAfter{data: []byte(`{"attributes":x`), err: failure}); err == nil || errors.Is(err, failure) {
		t.Errorf("syntax error before a read error: err = %v", err)
	}
}

// BenchmarkReadJSON decodes a RAPMD-shaped body: the 33x4x4x20 CDN
// schema, 10,560 leaves, split across GOMAXPROCS parts.
func BenchmarkReadJSON(b *testing.B) { benchReadJSON(b) }

// BenchmarkReadJSONSerial decodes the same body at GOMAXPROCS 1, so the
// one-part path keeps a number of its own.
func BenchmarkReadJSONSerial(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	benchReadJSON(b)
}

func benchReadJSON(b *testing.B) {
	var body bytes.Buffer
	if err := WriteJSON(&body, benchSnapshot(b)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadJSON(bytes.NewReader(body.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// windowDelta writes a failure-window tick of the continuous workload's
// shape: 1% of a 48·20·10·12 world, its elements named like the stream
// generator's ("region_7"), re-observed with full-precision values, a
// third of them dropped. It returns the world's schema and the body.
func windowDelta(tb testing.TB) (*Schema, []byte) {
	tb.Helper()
	attrs := []Attribute{{Name: "region"}, {Name: "isp"}, {Name: "proto"}, {Name: "tier"}}
	for i, card := range []int{48, 20, 10, 12} {
		for j := 1; j <= card; j++ {
			attrs[i].Values = append(attrs[i].Values, fmt.Sprintf("%s_%d", attrs[i].Name, j))
		}
	}
	schema := MustSchema(attrs...)
	all := NewCuboidIndexer(schema, Cuboid{0, 1, 2, 3})
	r := rand.New(rand.NewSource(5))
	var d Delta
	for i := 0; i < schema.NumLeaves(); i += 100 {
		f := math.Exp(3 + r.NormFloat64())
		v := f * (0.98 + 0.11*r.Float64())
		if len(d.Updates)%3 == 0 {
			v = f * (0.1 + 0.8*r.Float64())
		}
		d.Updates = append(d.Updates, LeafUpdate{Combo: all.Combination(i), Actual: v, Forecast: f})
	}
	var body bytes.Buffer
	if err := WriteDeltaJSON(&body, schema, d); err != nil {
		tb.Fatal(err)
	}
	return schema, body.Bytes()
}

// BenchmarkReadDeltaJSONWindow decodes a failure-window tick
// (windowDelta), whose updates array splits across GOMAXPROCS parts.
func BenchmarkReadDeltaJSONWindow(b *testing.B) {
	schema, body := windowDelta(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadDeltaJSON(bytes.NewReader(body), schema); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadDeltaJSON decodes one tick touching 1% of a 115,200-leaf
// world.
func BenchmarkReadDeltaJSON(b *testing.B) {
	snap := benchDeltaSnapshot(b)
	var body bytes.Buffer
	if err := WriteDeltaJSON(&body, snap.Schema, benchDelta(snap, 1)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadDeltaJSON(bytes.NewReader(body.Bytes()), snap.Schema); err != nil {
			b.Fatal(err)
		}
	}
}
