package kpi

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// checkDeltaSplitMatchesSerial is checkSplitMatchesSerial for delta
// documents against schema: each split decode must reject data with the
// one-part decode's error string or accept it with an identical delta, and
// the verdict must be the encoding/json reference's. It returns the number
// of parts the last split kept.
func checkDeltaSplitMatchesSerial(t testing.TB, schema *Schema, data []byte, splits ...[]int) int {
	t.Helper()
	want, _, werr := decodeDeltaSplit(data, schema, noSplit)
	if _, rerr := referenceReadDeltaJSON(bytes.NewReader(data), schema); (rerr == nil) != (werr == nil) {
		t.Fatalf("one part disagrees with the reference on %q:\n one:       %v\n reference: %v", data, werr, rerr)
	}
	parts := 0
	for _, offs := range splits {
		var (
			got Delta
			err error
		)
		got, parts, err = decodeDeltaSplit(data, schema, splitAt(offs...))
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("split at %v disagrees with one part on %q:\n split: %v\n one:   %v", offs, data, err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("split at %v: deltas differ on %q:\n split: %+v\n one:   %+v", offs, data, got, want)
		}
	}
	return parts
}

// trickyDelta writes a delta over trickySchema that updates every leaf and
// then removes and adds a few, its removes and adds after the updates
// array, compact or indented.
func trickyDelta(t testing.TB, indent bool) []byte {
	t.Helper()
	r := rand.New(rand.NewSource(9))
	var updates []LeafUpdate
	for a := int32(0); a < 4; a++ {
		for b := int32(0); b < 3; b++ {
			for c := int32(0); c < 6; c++ {
				updates = append(updates, LeafUpdate{Combo: Combination{a, b, c}, Actual: r.Float64() * 100, Forecast: 50})
			}
		}
	}
	member := func(d Delta) string {
		var buf bytes.Buffer
		if err := WriteDeltaJSON(&buf, trickySchema, d); err != nil {
			t.Fatal(err)
		}
		doc := strings.TrimSpace(buf.String())
		return doc[1 : len(doc)-1]
	}
	doc := "{" + member(Delta{Updates: updates}) + "," +
		member(Delta{Removes: []Combination{{0, 0, 0}, {3, 2, 5}}}) + "," +
		member(Delta{Adds: []Leaf{{Combo: Combination{1, 1, 1}, Actual: 2, Forecast: 3, Anomalous: true}}}) + "}"
	if !indent {
		return []byte(doc)
	}
	var out bytes.Buffer
	if err := json.Indent(&out, []byte(doc), "", " \t"); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func updateStarts(t testing.TB, doc []byte) []int { return memberStarts(t, doc, "updates") }

// deltaSplitCases are TestParallelDecodeMatchesSerial's delta cases: the
// snapshot cases' tricky names, errors at boundaries, unknown names and
// truncations on an updates array, plus a repeated updates member and
// removes and adds after the split array.
func deltaSplitCases(t *testing.T) {
	check := func(t testing.TB, data []byte, splits ...[]int) int {
		t.Helper()
		return checkDeltaSplitMatchesSerial(t, trickySchema, data, splits...)
	}
	t.Run("tricky names", func(t *testing.T) {
		for _, indent := range []bool{false, true} {
			doc := trickyDelta(t, indent)
			// One split just before every '{', so each ",{" inside a name
			// is a candidate once; the snapshot cases cover a stride.
			var splits [][]int
			for off := 0; off < len(doc); off++ {
				if doc[off] == '{' {
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
			check(t, doc, splits...)
			starts := updateStarts(t, doc)
			offs := []int{starts[10], starts[30], starts[50]}
			if parts := check(t, doc, offs); parts != 4 {
				t.Errorf("split at element starts %v kept %d parts, want 4", offs, parts)
			}
		}
	})

	t.Run("errors around a boundary", func(t *testing.T) {
		doc := trickyDelta(t, false)
		starts := updateStarts(t, doc)
		for _, e := range []int{starts[5], starts[40], starts[len(starts)-1]} {
			for _, at := range []int{e - 2, e - 1, e, e + 1, e + 2} {
				for _, b := range []byte{'x', ']', '}', ',', '"', ' ', '{', '['} {
					bad := bytes.Clone(doc)
					bad[at] = b
					check(t, bad, []int{e}, []int{starts[2], e, starts[len(starts)-3]})
				}
				cut := append(bytes.Clone(doc[:at]), doc[at+1:]...)
				check(t, cut, []int{e})
			}
		}
	})

	t.Run("unknown name in a later part", func(t *testing.T) {
		doc := trickyDelta(t, false)
		starts := updateStarts(t, doc)
		bad := bytes.Clone(doc)
		for _, i := range []int{60, 30} {
			at := starts[i] + bytes.Index(bad[starts[i]:], []byte(`"c0`))
			bad[at+1] = 'z'
		}
		splits := [][]int{{starts[20]}, {starts[20], starts[50]}, {starts[40]}, {starts[31], starts[61]}}
		check(t, bad, splits...)
		for _, offs := range splits {
			_, _, err := decodeDeltaSplit(bad, trickySchema, splitAt(offs...))
			if err == nil || !strings.Contains(err.Error(), "update 30: ") {
				t.Fatalf("split at %v: err = %v, want update 30 named", offs, err)
			}
		}
	})

	t.Run("truncated", func(t *testing.T) {
		doc := trickyDelta(t, true)
		starts := updateStarts(t, doc)
		offs := []int{starts[12], starts[36], starts[60]}
		for cut := 0; cut < len(doc); cut += 7 {
			check(t, doc[:cut], offs)
		}
	})

	t.Run("repeated updates", func(t *testing.T) {
		doc := trickyDelta(t, false)
		starts := updateStarts(t, doc)
		body := doc[:len(doc)-1] // drop "}"
		unknown := bytes.Clone(body)
		at := starts[50] + bytes.Index(unknown[starts[50]:], []byte(`"c0`))
		unknown[at+1] = 'z'
		unknown2 := bytes.Clone(unknown)
		at = starts[5] + bytes.Index(unknown2[starts[5]:], []byte(`"c0`))
		unknown2[at+1] = 'z'
		for _, first := range [][]byte{body, unknown, unknown2} {
			for _, later := range []string{
				`[` + strings.Repeat(`{},`, 5) + `{"combination":["a,{",",{,{","c05"]}` + strings.Repeat(`,{}`, 66) + `]`,
				`[]`, `null`, `[{"actual":5}]`,
				`[null,{"combination":["plain"]},{"combination":["plain","b","c00","x"]}]`,
				`[` + strings.Repeat(`null,`, 50) + `{"combination":[null,null,"c05"]}]`,
				`[` + strings.Repeat(`{},`, 71) + `{"combination":["plain","b","c05"],"forecast":1}]`,
				`[` + strings.Repeat(`{},`, 80) + `{}]`,
			} {
				data := append(bytes.Clone(first), `,"updates":`+later+`}`...)
				for _, offs := range [][]int{{starts[20]}, {starts[20], starts[45]}, {starts[45], starts[70]}} {
					if parts := check(t, data, offs); parts != len(offs)+1 {
						t.Fatalf("split at %v kept %d parts, want %d", offs, parts, len(offs)+1)
					}
				}
			}
		}
	})

	t.Run("removes and adds after the split", func(t *testing.T) {
		doc := trickyDelta(t, false)
		starts := updateStarts(t, doc)
		body := doc[:len(doc)-1]
		for _, tail := range []string{
			``,
			`,"removes":[["plain","b","c00"],null]`,
			`,"removes":[["plain","b","zz"]]`,
			`,"adds":[{"combination":["plain","b","zz"]}]`,
			`,"adds":[{"combination":["a,{",",{,{","c05"]},{"combination":["a,{"]}]`,
			`,"adds":[{},{"actual":1},` + strings.Repeat(`{"combination":["plain","b","c01"]},`, 3) + `null]`,
			`,"removes":[["plain","b","c00"],{"x":1}]`,
			`,"adds":[{"combination":["plain","b","c00"]},{"combination":["plain","b","c01"]}`,
		} {
			data := append(bytes.Clone(body), tail+`}`...)
			var splits [][]int
			for off := starts[len(starts)-2]; off < len(data); off += 3 {
				splits = append(splits, []int{starts[30], off})
			}
			check(t, data, splits...)
			check(t, data, []int{starts[20], starts[50]})
		}
	})
}

// TestParallelDecodeSplitsLongUpdates checks when ReadDeltaJSON
// splits: a tick's updates array of at least two minimum parts — the
// failure-window shape — is decoded in min(GOMAXPROCS, bytes/minPartBytes)
// parts, and the split delta is the one-part decode's.
func TestParallelDecodeSplitsLongUpdates(t *testing.T) {
	schema, body := windowDelta(t)
	starts := updateStarts(t, body)
	for _, procs := range []int{1, 2, 8} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			got, st, err := ReadDeltaJSONStats(body, schema)
			if err != nil {
				t.Fatal(err)
			}
			if want := max(1, min(procs, (len(body)-starts[0])/minPartBytes)); st.Parts != want || st.Bytes != len(body) {
				t.Errorf("GOMAXPROCS %d, %d bytes: stats %+v, want %d parts", procs, len(body), st, want)
			}
			want, _, _ := decodeDeltaSplit(body, schema, noSplit)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("GOMAXPROCS %d: delta differs from a one-part decode", procs)
			}
		}()
	}
	if len(body) < 2*minPartBytes {
		t.Fatalf("window tick of %d bytes is too short for two parts", len(body))
	}
}

// FuzzParallelDeltaDecodeMatchesSerial holds the split delta decode to the
// one-part decode on any document split near any three offsets: the same
// error string, or the same delta. tricky picks trickySchema, whose names
// hold ",{", over deltaParitySchema.
func FuzzParallelDeltaDecodeMatchesSerial(f *testing.F) {
	for i, seed := range deltaParitySeeds(f) {
		f.Add([]byte(seed), uint32(i), uint32(len(seed)/2), uint32(len(seed)), false)
	}
	doc := trickyDelta(f, false)
	starts := updateStarts(f, doc)
	f.Add(doc, uint32(starts[9]), uint32(starts[33]), uint32(len(doc)-40), true)
	f.Add(doc, uint32(starts[9]-3), uint32(starts[9]+5), uint32(starts[60]), true)
	f.Add(append(bytes.Clone(doc[:len(doc)-1]), `,"updates":[{},null,{"actual":2}]}`...),
		uint32(starts[20]), uint32(starts[21]), uint32(0), true)
	f.Add(trickyDelta(f, true), uint32(1000), uint32(2000), uint32(3000), true)
	f.Fuzz(func(t *testing.T, data []byte, a, b, c uint32, tricky bool) {
		schema := deltaParitySchema
		if tricky {
			schema = trickySchema
		}
		n := uint32(len(data) + 1)
		checkDeltaSplitMatchesSerial(t, schema, data, []int{int(a % n), int(b % n), int(c % n)})
	})
}
