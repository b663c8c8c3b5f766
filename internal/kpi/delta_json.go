package kpi

import (
	"fmt"
	"io"
)

// deltaJSON is the wire form of a Delta. Unlike a snapshot document a delta
// never carries a schema — it patches an existing snapshot, so element names
// resolve against the receiver's stored schema and an unknown name is a
// decode error, not a cardinality change (cardinality changes go through a
// fresh snapshot).
type deltaJSON struct {
	Removes [][]string `json:"removes,omitempty"`
	Updates []leafJSON `json:"updates,omitempty"`
	Adds    []leafJSON `json:"adds,omitempty"`
}

// ReadDeltaJSON parses a delta written by WriteDeltaJSON, resolving element
// names against the given schema. It shares ReadJSON's one-pass decoder and
// accepts exactly the documents encoding/json would decode into deltaJSON.
func ReadDeltaJSON(r io.Reader, schema *Schema) (Delta, error) {
	d, _, err := ReadDeltaJSONStats(r, schema)
	return d, err
}

// ReadDeltaJSONStats is ReadDeltaJSON, also reporting how the document was
// decoded. A long first updates array is decoded on several goroutines,
// as a snapshot's leaves array is; removes and adds are decoded serially.
func ReadDeltaJSONStats(r io.Reader, schema *Schema) (Delta, WireStats, error) {
	body, err := readDocument(r)
	st := WireStats{Bytes: len(body), Parts: 1}
	if err != nil {
		return Delta{}, st, fmt.Errorf("kpi: read delta json: %w", err)
	}
	d, parts, err := decodeDeltaSplit(body, schema, splitOffsets)
	st.Parts = parts
	return d, st, err
}
