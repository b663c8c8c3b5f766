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
	body, err := readDocument(r)
	if err != nil {
		return Delta{}, fmt.Errorf("kpi: read delta json: %w", err)
	}
	d, _, err := ReadDeltaJSONStats(body, schema)
	return d, err
}

// ReadDeltaJSONStats is ReadDeltaJSON on a document already in memory,
// also reporting how it was decoded. A long first updates array is decoded
// on several goroutines, as a snapshot's leaves array is; removes and adds
// are decoded serially. The decoder neither writes to body nor keeps it.
func ReadDeltaJSONStats(body []byte, schema *Schema) (Delta, WireStats, error) {
	d, parts, err := decodeDeltaSplit(body, schema, splitOffsets)
	return d, WireStats{Bytes: len(body), Parts: parts}, err
}
