package kpi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// splitAt returns a split function that asks for the given offsets,
// whatever the array.
func splitAt(offs ...int) func(first, end int) []int {
	return func(int, int) []int { return offs }
}

func noSplit(int, int) []int { return nil }

// checkSplitMatchesSerial decodes data split near each set of offsets and
// in one part, and fails unless each split decode and the one-part decode
// reject it with the same error string, or accept it with identical
// schemas and leaves. The verdict must also be the encoding/json
// reference's. It returns the number of parts the last split kept.
func checkSplitMatchesSerial(t testing.TB, data []byte, splits ...[]int) int {
	t.Helper()
	want, _, werr := decodeSnapshotSplit(data, noSplit)
	if _, rerr := referenceReadJSON(bytes.NewReader(data)); (rerr == nil) != (werr == nil) {
		t.Fatalf("one part disagrees with the reference on %q:\n one:       %v\n reference: %v", data, werr, rerr)
	}
	parts := 0
	for _, offs := range splits {
		var (
			got *Snapshot
			err error
		)
		got, parts, err = decodeSnapshotSplit(data, splitAt(offs...))
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("split at %v disagrees with one part on %q:\n split: %v\n one:   %v", offs, data, err, werr)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(schemaAttributes(got.Schema), schemaAttributes(want.Schema)) {
			t.Fatalf("split at %v: schemas differ on %q", offs, data)
		}
		if !reflect.DeepEqual(got.Leaves, want.Leaves) {
			t.Fatalf("split at %v: leaves differ on %q:\n split: %v\n one:   %v", offs, data, got.Leaves, want.Leaves)
		}
	}
	return parts
}

// trickySchema has element names holding the bytes a split candidate looks
// for: ",{" bare, after whitespace, and as the start of a whole leaf.
var trickySchema = MustSchema(
	Attribute{Name: "A", Values: []string{"a,{", "a, {", `},{"combination":["a,{"]}`, "plain"}},
	Attribute{Name: "B", Values: []string{",{,{", "b", `{"x":[1,{}]}`}},
	Attribute{Name: "C", Values: elems("c", 6)},
)

// trickyDocument writes every leaf of trickySchema, compact or indented.
func trickyDocument(t testing.TB, indent bool) []byte {
	t.Helper()
	var leaves []Leaf
	r := rand.New(rand.NewSource(7))
	for a := int32(0); a < 4; a++ {
		for b := int32(0); b < 3; b++ {
			for c := int32(0); c < 6; c++ {
				leaves = append(leaves, Leaf{Combo: Combination{a, b, c}, Actual: r.Float64() * 100,
					Forecast: 50, Anomalous: r.Intn(4) == 0})
			}
		}
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, &Snapshot{Schema: trickySchema, Leaves: leaves}); err != nil {
		t.Fatal(err)
	}
	if !indent {
		return buf.Bytes()
	}
	var out bytes.Buffer
	if err := json.Indent(&out, buf.Bytes(), "", " \t"); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// elementStarts returns the offset of every leaf object of a document
// that holds one leaves array, found by decoding it in one part.
func elementStarts(t testing.TB, doc []byte) []int { return memberStarts(t, doc, "leaves") }

// memberStarts returns the offset of every element of the document's first
// array member named key.
func memberStarts(t testing.TB, doc []byte, key string) []int {
	t.Helper()
	d := &wireDecoder{buf: doc}
	at := bytes.Index(doc, []byte(`"`+key+`"`))
	d.pos = at + len(key) + 2
	d.peek()
	d.pos++ // the colon
	if d.peek() != '[' {
		t.Fatalf("no %s array", key)
	}
	if err := d.enter(); err != nil || !d.first(']') {
		t.Fatalf("empty %s array", key)
	}
	var starts []int
	for {
		starts = append(starts, d.pos)
		if err := d.skip(); err != nil {
			t.Fatal(err)
		}
		if more, err := d.next(']'); err != nil || !more {
			return starts
		}
		d.peek()
	}
}

// atProcs runs fn as a subtest at each GOMAXPROCS setting.
func atProcs(t *testing.T, fn func(t *testing.T)) {
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fn(t)
		})
	}
}

func TestParallelDecodeMatchesSerial(t *testing.T) {
	atProcs(t, func(t *testing.T) {
		t.Run("tricky names", func(t *testing.T) {
			for _, indent := range []bool{false, true} {
				doc := trickyDocument(t, indent)
				// One split just before every '{', so each ",{" inside a
				// name is a candidate once, and at a stride elsewhere.
				var splits [][]int
				for off := 0; off <= len(doc); off++ {
					if off%11 == 0 || off < len(doc) && doc[off] == '{' {
						splits = append(splits, []int{off - 1}, []int{off})
					}
				}
				r := rand.New(rand.NewSource(int64(len(doc))))
				for trial := 0; trial < 200; trial++ {
					offs := make([]int, 2+r.Intn(6))
					for i := range offs {
						offs[i] = r.Intn(len(doc))
					}
					splits = append(splits, offs)
				}
				checkSplitMatchesSerial(t, doc, splits...)
				// Splitting at true element starts keeps every part.
				starts := elementStarts(t, doc)
				offs := []int{starts[10], starts[30], starts[50]}
				if parts := checkSplitMatchesSerial(t, doc, offs); parts != 4 {
					t.Errorf("split at element starts %v kept %d parts, want 4", offs, parts)
				}
			}
		})

		t.Run("errors around a boundary", func(t *testing.T) {
			doc := trickyDocument(t, false)
			starts := elementStarts(t, doc)
			for _, e := range []int{starts[5], starts[40], starts[len(starts)-1]} {
				for _, at := range []int{e - 2, e - 1, e, e + 1, e + 2} {
					for _, b := range []byte{'x', ']', '}', ',', '"', ' ', '{', '['} {
						bad := bytes.Clone(doc)
						bad[at] = b
						checkSplitMatchesSerial(t, bad, []int{e}, []int{starts[2], e, starts[len(starts)-3]})
					}
					cut := append(bytes.Clone(doc[:at]), doc[at+1:]...)
					checkSplitMatchesSerial(t, cut, []int{e})
				}
			}
		})

		t.Run("unknown name in a later part", func(t *testing.T) {
			doc := trickyDocument(t, false)
			starts := elementStarts(t, doc)
			// Leaves 30 and 60 get names the schema lacks; leaf 30 is
			// the first failing one whichever part it lands in.
			bad := bytes.Clone(doc)
			for _, i := range []int{60, 30} {
				at := starts[i] + bytes.Index(bad[starts[i]:], []byte(`"c0`))
				bad[at+1] = 'z'
			}
			splits := [][]int{{starts[20]}, {starts[20], starts[50]}, {starts[40]}, {starts[31], starts[61]}}
			checkSplitMatchesSerial(t, bad, splits...)
			for _, offs := range splits {
				_, _, err := decodeSnapshotSplit(bad, splitAt(offs...))
				if err == nil || !strings.Contains(err.Error(), "leaf 30: ") {
					t.Fatalf("split at %v: err = %v, want leaf 30 named", offs, err)
				}
			}
		})

		t.Run("nesting limit in a later part", func(t *testing.T) {
			doc := trickyDocument(t, false)
			starts := elementStarts(t, doc)
			// Leaf 50 is at level 3; its member nests n arrays deeper,
			// which the 10,000-level limit allows up to n = 9,997.
			for _, n := range []int{maxNestingDepth - 3, maxNestingDepth - 2} {
				deep := `"deep":` + strings.Repeat("[", n) + strings.Repeat("]", n) + ","
				at := starts[50] + 1
				data := append(append(bytes.Clone(doc[:at]), deep...), doc[at:]...)
				if parts := checkSplitMatchesSerial(t, data, []int{starts[40]}); parts != 2 {
					t.Errorf("%d nested arrays: kept %d parts, want 2", n, parts)
				}
			}
		})

		t.Run("truncated", func(t *testing.T) {
			doc := trickyDocument(t, true)
			starts := elementStarts(t, doc)
			offs := []int{starts[12], starts[36], starts[60]}
			for cut := 0; cut < len(doc); cut += 7 {
				checkSplitMatchesSerial(t, doc[:cut], offs)
			}
		})

		t.Run("repeated leaves", func(t *testing.T) {
			doc := trickyDocument(t, false)
			starts := elementStarts(t, doc)
			body := doc[:len(doc)-2] // drop "}\n"
			// An unknown name in the second part, decoded over (or not)
			// by the later member.
			unknown := bytes.Clone(body)
			at := starts[50] + bytes.Index(unknown[starts[50]:], []byte(`"c0`))
			unknown[at+1] = 'z'
			// Unknown names in the first part too, so the later part's
			// are renumbered when the parts fold.
			unknown2 := bytes.Clone(unknown)
			at = starts[5] + bytes.Index(unknown2[starts[5]:], []byte(`"c0`))
			unknown2[at+1] = 'z'
			for _, first := range [][]byte{body, unknown, unknown2} {
				for _, later := range []string{
					// Leaf 5 decoded over with its own combination,
					// leaf 50 kept.
					`[` + strings.Repeat(`{},`, 5) + `{"combination":["a,{",",{,{","c05"]}` + strings.Repeat(`,{}`, 66) + `]`,
					`[]`, `null`, `[{"actual":5}]`,
					`[null,{"combination":["plain"]},{"combination":["plain","b","c00","x"]}]`,
					`[` + strings.Repeat(`null,`, 50) + `{"combination":[null,null,"c05"]}]`,
					`[` + strings.Repeat(`{},`, 71) + `{"combination":["plain","b","c05"],"forecast":1}]`,
					`[` + strings.Repeat(`{},`, 80) + `{}]`,
				} {
					data := append(bytes.Clone(first), `,"leaves":`+later+`}`...)
					for _, offs := range [][]int{{starts[20]}, {starts[20], starts[45]}, {starts[45], starts[70]}} {
						if parts := checkSplitMatchesSerial(t, data, offs); parts != len(offs)+1 {
							t.Fatalf("split at %v kept %d parts, want %d", offs, parts, len(offs)+1)
						}
					}
				}
			}
		})

		t.Run("members after the array", func(t *testing.T) {
			doc := trickyDocument(t, false)
			starts := elementStarts(t, doc)
			body := doc[:len(doc)-2]
			tail := `,"x":[1,{"a":[2,{"b":3}]}, {"combination":["plain","b","c00"]}],"y":{"z":[{}, {}]},"w":[{}]}`
			data := append(bytes.Clone(body), tail...)
			var splits [][]int
			for off := starts[len(starts)-2]; off < len(data); off++ {
				splits = append(splits, []int{starts[30], off})
			}
			checkSplitMatchesSerial(t, data, splits...)
		})

		t.Run("leaves before attributes", func(t *testing.T) {
			doc := trickyDocument(t, false)
			i := bytes.Index(doc, []byte(`,"leaves"`))
			attrs, leaves := doc[1:i], doc[i+1:len(doc)-2]
			for _, data := range []string{
				"{" + string(leaves) + "," + string(attrs) + "}",
				"{" + string(attrs) + "," + string(leaves) + `,"attributes":[{"name":"A","values":["plain"]}]}`,
				"{" + string(attrs) + "," + string(leaves) + "," + string(attrs) + "}",
			} {
				var splits [][]int
				for off := 0; off < len(data); off += 97 {
					splits = append(splits, []int{off, off + len(data)/3})
				}
				checkSplitMatchesSerial(t, []byte(data), splits...)
			}
		})

		t.Run("delta", deltaSplitCases)
	})
}

// TestSplitPartsRepeatNames splits where the same element name runs on
// both sides of the boundary: each part starts with an empty name cache,
// and the row after the boundary may spell the name with an escape, extend
// it, or cut it short.
func TestSplitPartsRepeatNames(t *testing.T) {
	schema := MustSchema(
		Attribute{Name: "A", Values: []string{"n1", "n12"}},
		Attribute{Name: "B", Values: elems("c", 40)},
	)
	var leaves []Leaf
	for _, a := range []int32{1, 0} {
		for b := int32(0); b < 40; b++ {
			leaves = append(leaves, Leaf{Combo: Combination{a, b}, Actual: float64(b), Forecast: 1})
		}
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, &Snapshot{Schema: schema, Leaves: leaves}); err != nil {
		t.Fatal(err)
	}
	doc := buf.Bytes()
	starts := elementStarts(t, doc)
	for _, at := range []int{20, 39, 40, 41, 60} {
		name, respells := `"n12"`, []string{`"n12"`, `"n\u00312"`, `"n1"`, `"n123"`}
		if at >= 40 {
			name, respells = `"n1"`, []string{`"n1"`, `"n\u0031"`, `"n12"`, `"n"`}
		}
		for _, to := range respells {
			i := starts[at] + bytes.Index(doc[starts[at]:], []byte(name))
			data := append(append(bytes.Clone(doc[:i]), to...), doc[i+len(name):]...)
			if parts := checkSplitMatchesSerial(t, data, []int{starts[at]}); parts != 2 {
				t.Errorf("row %d spelled %s: kept %d parts, want 2", at, to, parts)
			}
		}
	}
}

// TestSplitCandidates checks how split offsets snap to candidates: the
// first '{' at or after the offset whose previous non-whitespace byte is
// ',', wherever it is — inside a string (8) or a nested array (21) too.
func TestSplitCandidates(t *testing.T) {
	doc := []byte(`[{"a":",{"}, {"b":[1,{}]},` + "\n\t" + `{"c":{"x":1}},{}]`)
	for _, tt := range []struct {
		offs, want []int
	}{
		{[]int{0}, []int{8}},
		{[]int{8}, []int{8}},
		{[]int{9}, []int{13}},
		{[]int{14}, []int{21}},
		{[]int{22}, []int{28}},
		{[]int{5, 5, 5, 5}, []int{8, 13, 21, 28}},
		{[]int{29, 1}, []int{42}}, // not the '{' after a colon
		{[]int{43}, nil},
		{[]int{len(doc) + 5}, nil},
	} {
		if got := candidates(doc, 1, tt.offs); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("candidates at %v = %v, want %v", tt.offs, got, tt.want)
		}
	}
}

// TestParallelDecodeSplitsLongArrays checks when ReadJSON splits: a leaves
// array of at least two minimum parts is decoded in min(GOMAXPROCS,
// bytes/minPartBytes) parts, a shorter one serially.
func TestParallelDecodeSplitsLongArrays(t *testing.T) {
	snap := benchSnapshot(t)
	var body bytes.Buffer
	if err := WriteJSON(&body, snap); err != nil {
		t.Fatal(err)
	}
	doc := body.Bytes()
	if len(doc) < 4*minPartBytes {
		t.Fatalf("body of %d bytes is too short for four parts", len(doc))
	}
	starts := elementStarts(t, doc)
	for _, tt := range []struct{ procs, size, parts int }{
		{1, len(doc), 1},
		{2, len(doc), 2},
		{8, len(doc), min(8, (len(doc)-starts[0])/minPartBytes)},
		{8, 2*minPartBytes - 1, 1},
	} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tt.procs))
			// A shorter body keeps a prefix of the leaves.
			data := doc
			if tt.size < len(doc) {
				n := 0
				for n < len(starts) && starts[n] < tt.size-len(`]}`) {
					n++
				}
				data = append(bytes.Clone(doc[:starts[n-1]-1]), "]}"...)
			}
			got, st, err := ReadJSONStats(data)
			if err != nil {
				t.Fatal(err)
			}
			if st.Parts != tt.parts || st.Bytes != len(data) {
				t.Errorf("GOMAXPROCS %d, %d bytes: stats %+v, want %d parts", tt.procs, len(data), st, tt.parts)
			}
			want, _, _ := decodeSnapshotSplit(data, noSplit)
			if !reflect.DeepEqual(got.Leaves, want.Leaves) {
				t.Errorf("GOMAXPROCS %d: leaves differ from a one-part decode", tt.procs)
			}
		}()
	}
}

// FuzzParallelDecodeMatchesSerial holds the split decode to the one-part
// decode on any document split near any three offsets: the same error
// string, or the same schema and leaves.
func FuzzParallelDecodeMatchesSerial(f *testing.F) {
	for i, seed := range snapshotParitySeeds(f) {
		f.Add([]byte(seed), uint32(i), uint32(len(seed)/2), uint32(len(seed)))
	}
	doc := trickyDocument(f, false)
	starts := elementStarts(f, doc)
	f.Add(doc, uint32(starts[9]), uint32(starts[33]), uint32(len(doc)-40))
	f.Add(doc, uint32(starts[9]-3), uint32(starts[9]+5), uint32(starts[60]))
	f.Add(append(bytes.Clone(doc[:len(doc)-2]), `,"leaves":[{},null,{"actual":2}]}`...),
		uint32(starts[20]), uint32(starts[21]), uint32(0))
	f.Add(trickyDocument(f, true), uint32(1000), uint32(2000), uint32(3000))
	f.Fuzz(func(t *testing.T, data []byte, a, b, c uint32) {
		n := uint32(len(data) + 1)
		checkSplitMatchesSerial(t, data, []int{int(a % n), int(b % n), int(c % n)})
	})
}
