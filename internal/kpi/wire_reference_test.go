package kpi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

// referenceReadJSON is the encoding/json decoder ReadJSON replaced, kept as
// the oracle the one-pass decoder is held to: the same documents accepted,
// identical snapshots. Its duplicate check is the string-keyed one
// NewSnapshot made before the packed leaf index.
func referenceReadJSON(r io.Reader) (*Snapshot, error) {
	var doc snapshotJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("kpi: read json: %w", err)
	}
	attrs := make([]Attribute, len(doc.Attributes))
	for i, a := range doc.Attributes {
		attrs[i] = Attribute{Name: a.Name, Values: a.Values}
	}
	schema, err := NewSchema(attrs...)
	if err != nil {
		return nil, fmt.Errorf("kpi: read json: %w", err)
	}
	leaves := make([]Leaf, 0, len(doc.Leaves))
	seen := make(map[string]struct{}, len(doc.Leaves))
	for i, row := range doc.Leaves {
		combo, err := comboFromNames(schema, row.Combination)
		if err != nil {
			return nil, fmt.Errorf("kpi: read json: leaf %d: %w", i, err)
		}
		if _, dup := seen[combo.Key()]; dup {
			return nil, fmt.Errorf("kpi: duplicate leaf %s", combo.Format(schema))
		}
		seen[combo.Key()] = struct{}{}
		leaves = append(leaves, Leaf{
			Combo:     combo,
			Actual:    row.Actual,
			Forecast:  row.Forecast,
			Anomalous: row.Anomalous,
		})
	}
	return &Snapshot{Schema: schema, Leaves: leaves}, nil
}

// referenceReadDeltaJSON is the encoding/json decoder ReadDeltaJSON
// replaced.
func referenceReadDeltaJSON(r io.Reader, schema *Schema) (Delta, error) {
	var doc deltaJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return Delta{}, fmt.Errorf("kpi: read delta json: %w", err)
	}
	var d Delta
	for i, names := range doc.Removes {
		combo, err := comboFromNames(schema, names)
		if err != nil {
			return Delta{}, fmt.Errorf("kpi: read delta json: remove %d: %w", i, err)
		}
		d.Removes = append(d.Removes, combo)
	}
	for i, row := range doc.Updates {
		combo, err := comboFromNames(schema, row.Combination)
		if err != nil {
			return Delta{}, fmt.Errorf("kpi: read delta json: update %d: %w", i, err)
		}
		d.Updates = append(d.Updates, LeafUpdate{Combo: combo, Actual: row.Actual, Forecast: row.Forecast})
	}
	for i, row := range doc.Adds {
		combo, err := comboFromNames(schema, row.Combination)
		if err != nil {
			return Delta{}, fmt.Errorf("kpi: read delta json: add %d: %w", i, err)
		}
		d.Adds = append(d.Adds, Leaf{
			Combo:     combo,
			Actual:    row.Actual,
			Forecast:  row.Forecast,
			Anomalous: row.Anomalous,
		})
	}
	return d, nil
}

// comboFromNames resolves element names into a combination.
func comboFromNames(schema *Schema, names []string) (Combination, error) {
	if len(names) != schema.NumAttributes() {
		return nil, fmt.Errorf("combination has %d elements, schema has %d attributes",
			len(names), schema.NumAttributes())
	}
	combo := make(Combination, len(names))
	for a, name := range names {
		code, ok := schema.Code(a, name)
		if !ok {
			return nil, fmt.Errorf("attribute %q has no element %q", schema.Attribute(a).Name, name)
		}
		combo[a] = code
	}
	return combo, nil
}

func schemaAttributes(s *Schema) []Attribute {
	out := make([]Attribute, s.NumAttributes())
	for i := range out {
		out[i] = s.Attribute(i)
	}
	return out
}

// checkSnapshotParity decodes data with ReadJSON and with the reference and
// fails unless both reject it, or both accept it with identical schemas
// and leaves.
func checkSnapshotParity(t *testing.T, data []byte) {
	t.Helper()
	got, err := ReadJSON(bytes.NewReader(data))
	want, werr := referenceReadJSON(bytes.NewReader(data))
	if (err == nil) != (werr == nil) {
		t.Fatalf("decoders disagree on %q:\n one-pass:  %v\n reference: %v", data, err, werr)
	}
	if err != nil {
		if !strings.HasPrefix(err.Error(), "kpi: ") {
			t.Fatalf("error %q lacks the kpi: prefix", err)
		}
		return
	}
	if !reflect.DeepEqual(schemaAttributes(got.Schema), schemaAttributes(want.Schema)) {
		t.Fatalf("schemas differ on %q:\n one-pass:  %#v\n reference: %#v",
			data, schemaAttributes(got.Schema), schemaAttributes(want.Schema))
	}
	if !reflect.DeepEqual(got.Leaves, want.Leaves) {
		t.Fatalf("leaves differ on %q:\n one-pass:  %#v\n reference: %#v", data, got.Leaves, want.Leaves)
	}
}

// deltaParitySchema is the schema the delta targets resolve names against;
// its U+FFFD element lets documents with invalid UTF-8 names be accepted.
var deltaParitySchema = MustSchema(
	Attribute{Name: "A", Values: []string{"x", "y", "\uFFFD"}},
	Attribute{Name: "B", Values: []string{"p", "q"}},
)

func checkDeltaParity(t *testing.T, data []byte) {
	t.Helper()
	got, err := ReadDeltaJSON(bytes.NewReader(data), deltaParitySchema)
	want, werr := referenceReadDeltaJSON(bytes.NewReader(data), deltaParitySchema)
	if (err == nil) != (werr == nil) {
		t.Fatalf("decoders disagree on %q:\n one-pass:  %v\n reference: %v", data, err, werr)
	}
	if err != nil {
		if !strings.HasPrefix(err.Error(), "kpi: read delta json: ") {
			t.Fatalf("error %q lacks the kpi: read delta json: prefix", err)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("deltas differ on %q:\n one-pass:  %#v\n reference: %#v", data, got, want)
	}
}

const (
	paritySchema = `"attributes":[{"name":"A","values":["x","y"]},{"name":"B","values":["p","q"]}]`
	parityLeaves = `"leaves":[{"combination":["x","p"],"actual":1,"forecast":2,"anomalous":true},` +
		`{"combination":["y","q"],"actual":3.5,"forecast":-0}]`
)

// snapshotParitySeeds are documents on each side of every rule the decoder
// has to share with encoding/json.
func snapshotParitySeeds(tb testing.TB) []string {
	snap, err := NewSnapshot(MustSchema(
		Attribute{Name: "Location", Values: []string{"L1", "L2"}},
		Attribute{Name: "Website", Values: []string{"S1", "S2", "S3"}},
	), []Leaf{
		{Combo: Combination{0, 0}, Actual: 10.25, Forecast: 20, Anomalous: true},
		{Combo: Combination{1, 2}, Actual: 1e-7, Forecast: 3.3333333333333335},
	})
	if err != nil {
		tb.Fatal(err)
	}
	var canonical bytes.Buffer
	if err := WriteJSON(&canonical, snap); err != nil {
		tb.Fatal(err)
	}
	return []string{
		canonical.String(),
		"{" + paritySchema + "," + parityLeaves + "}",
		// Reordered keys: leaves before attributes, fields in any order.
		"{" + parityLeaves + "," + paritySchema + "}",
		`{"leaves":[{"forecast":2,"anomalous":false,"actual":1,"combination":["x","q"]}],` + paritySchema + `}`,
		// Case-folded keys, including the long s (ſ) folding to s; a
		// Kelvin sign (K) folds to k, which no field name contains.
		`{"ATTRIBUTES":[{"NAME":"A","Values":["x"]}],"Leaves":[{"COMBINATION":["x"],"Actual":1,"forecasT":2}]}`,
		`{"attributeſ":[{"name":"A","valueſ":["x"]}],"leaveſ":[{"combination":["x"],"actual":1,"forecast":1}]}`,
		`{"attributes":[{"name":"A","values":["x"]}],"leaves":[],"K":1,"\u212aey":[1]}`,
		`{"le\u0061ves":[{"combination":["x"],"actual":1,"forecast":1}],"attributes":[{"name":"A","values":["x"]}]}`,
		// Keys verbatim, case-folded, with a Kelvin sign, spaced before the
		// colon, or one byte too long; element names that extend or cut
		// short the previous row's, or spell it with an escape.
		`{"attributes":[{"name":"A","values":["Site1","Site12"]},{"name":"B","values":["p","q","r"]}],"leaves":[` +
			`{"combination":["Site12","p"],"Actual":1,"ACTUAL":2,"forecast" :3,"actualx":4,"actualx:":9,"K":5},` +
			`{"combination":["Site1","p"],"actual":6,"forecast":7},{"combination":["Site12","q"],"actual" : 8},` +
			`{"combination":["Site\u0031","q"]},{"combination":["Site1","r"]},{"combination" :["Site12","r"]}]}`,
		`{"attributes":[{"name":"A","values":["Site1","Site12"]}],"leaves":[{"combination":["Site1"]},{"combination":["Site12"]},` +
			`{"combination":["Site123"]}]}`,
		`{"attributes":[{"name":"A","values":["Site1","Site12"]}],"leaves":[{"combination":["Site12"]},{"combination":["Site1"]},` +
			`{"combination":["Site"]}]}`,
		// Repeated keys decode into the value already there.
		"{" + paritySchema + "," + parityLeaves + `,"leaves":[{"combination":["y","p"]}]}`,
		"{" + paritySchema + `,"leaves":[{"combination":["x","p","q"],"combination":["y"],"combination":[null,null]}]}`,
		"{" + paritySchema + `,"leaves":[{"combination":["x","p"]},{"combination":["y","q"]}],"leaves":[],"leaves":[{},{}]}`,
		`{"attributes":[{"name":"A","values":["x"]}],"leaves":[{"combination":["y"],"actual":1,"forecast":1}],` +
			`"attributes":[{"values":["x","y"]}]}`,
		`{"attributes":[{"name":"A","values":["x","y"]},{"name":"B","values":["z"]}],"attributes":[{"name":"A"}],` +
			`"leaves":[{"combination":["y"]}]}`,
		// null: scalars keep their value, slices reset.
		"{" + paritySchema + "," + parityLeaves + `,"leaves":[null,{"actual":null,"forecast":null,"anomalous":null}]}`,
		"{" + paritySchema + `,"leaves":[{"combination":null,"actual":1}]}`,
		`{"attributes":[{"name":"A","values":["x",null]}],"leaves":[]}`,
		`{"attributes":null,"leaves":null}`,
		`null`,
		// Escaped and invalid UTF-8 names; unpaired surrogates become U+FFFD.
		`{"attributes":[{"name":"A\u0009","values":["\u0078","\ud800","é"]}],` +
			`"leaves":[{"combination":["x"]},{"combination":["\udfff"]},{"combination":["\u00e9"]}]}`,
		"{\"attributes\":[{\"name\":\"A\",\"values\":[\"\xff\",\"b\"]}],\"leaves\":[{\"combination\":[\"\xfe\"]}]}",
		"{\"attributes\":[{\"name\":\"A\",\"values\":[\"a\\/b\"]}],\"leaves\":[{\"combination\":[\"a/b\"],\"actual\":1e-400}]}",
		// Numbers that do not fit a float64 are rejected, unless unread.
		"{" + paritySchema + `,"leaves":[{"combination":["x","p"],"actual":1e400}]}`,
		"{" + paritySchema + `,"leaves":[{"combination":["x","p"],"actual":-1.5E+3,"skip":1e400}]}`,
		// Bytes after the first value are ignored.
		"{" + paritySchema + "," + parityLeaves + "} trailing garbage {",
		"{" + paritySchema + "," + parityLeaves + "}}",
		// Malformed or mistyped documents.
		`{`, `[]`, ``, `   `, `{"attributes":[{"name":"A","values":["x"]}],"leaves":[{"combination":["x"],"actual":01}]}`,
		`{"attributes":[{"name":"A","values":["x"]}],"leaves":[{"combination":["x"],"actual":"1"}]}`,
		`{"attributes":[{"name":"A","values":["x"]}],"leaves":[{"combination":["x"],"anomalous":1}]}`,
		`{"attributes":[{"name":"A","values":["x"]}],"leaves":[{"combination":["x"]},{"combination":["x"]}]}`,
		`{"attributes":[{"name":"A","values":["x"]}],"leaves":[{"combination":["x"]}],"x":[1,]}`,
		"{\"attributes\":[{\"name\":\"A\",\"values\":[\"x\ty\"]}],\"leaves\":[]}",
		`{"attributes":[{"name":"A","values":["x"]}],"leaves":[{"combination":["x"]}],"x":tru}`,
	}
}

func deltaParitySeeds(tb testing.TB) []string {
	var canonical bytes.Buffer
	d := Delta{
		Removes: []Combination{{0, 0}},
		Updates: []LeafUpdate{{Combo: Combination{1, 1}, Actual: 2.5, Forecast: 3}},
		Adds:    []Leaf{{Combo: Combination{2, 0}, Actual: 1, Forecast: 1, Anomalous: true}},
	}
	if err := WriteDeltaJSON(&canonical, deltaParitySchema, d); err != nil {
		tb.Fatal(err)
	}
	return []string{
		canonical.String(),
		`null`, `null trailing`, `{}`, `{} trailing`, `{"removes":null,"updates":[],"adds":null}`,
		`{"Removes":[["x","p"],null,["y","q"]]}`,
		`{"removes":[["x","p"],["y","q"]],"removes":[["y"]]}`,
		`{"removes":[["x","p"],["y","q"]],"removes":[[null,"q"],null]}`,
		`{"UPDATES":[{"combination":["x","p"],"actual":1,"forecast":2,"anomalous":true}]}`,
		// The key and element fast paths' near misses (see the snapshot
		// seeds); U+FFFD cached raw, then escaped, then as invalid UTF-8.
		`{"updates":[{"combination":["x","p"],"Actual":1,"ACTUAL":2,"forecast" :3,"actualx":4,"actualx:":9,"K":5},` +
			`{"combination":["y","p"]},{"combination":["\u0079","q"]},{"combination" : ["x","q"]}],"adds" :[]}`,
		"{\"adds\":[{\"combination\":[\"\uFFFD\",\"p\"]},{\"combination\":[\"\\ufffd\",\"q\"]}],\"removes\":[[\"\xff\",\"q\"]]}",
		`{"updates":[{"combination":["x","p"]},{"combination":["xy","p"]}]}`,
		`{"addſ":[{"combination":["x","zz"]},{"combination":["x","p"]}],"adds":[{"combination":[null,"q"]}]}`,
		`{"adds":[{"combination":["x","p"],"actual":1}],"adds":[{"anomalous":true},{"combination":["y","q"]}]}`,
		"{\"updates\":[{\"combination\":[\"\xff\",\"p\"],\"actual\":1}]}",
		`{"updates":[{"combination":["\ud83d","\u0070"],"actual":1}]}`,
		`{"updates":[{"combination":["x","p"],"actual":-1e309}]}`,
		`{"updates":[{"combination":["x","p"],"forecast":true}]}`,
		`{"updates":[{"combination":["x","p"]}],"unknown":{"a":[{"b":null}]}}`,
		`{"updates":[{"combination":["x","p"]}]`,
		`{"adds":[{"combination":["x"]}]}`,
		`{"adds":{"combination":["x","p"]}}`,
		`[]`, `"x"`, `nul`,
	}
}

// FuzzReadJSONMatchesReference holds ReadJSON to the encoding/json decoder
// it replaced: the same accept/reject verdict on every input, and on
// accepted ones identical schema attributes and leaves.
func FuzzReadJSONMatchesReference(f *testing.F) {
	for _, seed := range snapshotParitySeeds(f) {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkSnapshotParity)
}

// FuzzReadDeltaJSONMatchesReference holds ReadDeltaJSON to the
// encoding/json decoder it replaced.
func FuzzReadDeltaJSONMatchesReference(f *testing.F) {
	for _, seed := range deltaParitySeeds(f) {
		f.Add([]byte(seed))
	}
	f.Fuzz(checkDeltaParity)
}
