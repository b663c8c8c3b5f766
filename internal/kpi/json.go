package kpi

import (
	"encoding/json"
	"fmt"
	"io"
)

// snapshotJSON is the wire form of a Snapshot: the schema plus one row per
// leaf, with attribute elements by name.
type snapshotJSON struct {
	Attributes []attributeJSON `json:"attributes"`
	Leaves     []leafJSON      `json:"leaves"`
}

type attributeJSON struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

type leafJSON struct {
	Combination []string `json:"combination"`
	Actual      float64  `json:"actual"`
	Forecast    float64  `json:"forecast"`
	Anomalous   bool     `json:"anomalous,omitempty"`
}

// WriteJSON serializes the snapshot as JSON: schema first, then one row per
// leaf with element names.
func WriteJSON(w io.Writer, s *Snapshot) error {
	doc := snapshotJSON{
		Attributes: make([]attributeJSON, s.Schema.NumAttributes()),
		Leaves:     make([]leafJSON, len(s.Leaves)),
	}
	for i := range doc.Attributes {
		a := s.Schema.Attribute(i)
		doc.Attributes[i] = attributeJSON{Name: a.Name, Values: a.Values}
	}
	for i, l := range s.Leaves {
		row := leafJSON{
			Combination: make([]string, len(l.Combo)),
			Actual:      l.Actual,
			Forecast:    l.Forecast,
			Anomalous:   l.Anomalous,
		}
		for a, code := range l.Combo {
			row.Combination[a] = s.Schema.Value(a, code)
		}
		doc.Leaves[i] = row
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("kpi: write json: %w", err)
	}
	return nil
}

// ReadJSON parses a snapshot written by WriteJSON, rebuilding the schema
// from the document. It decodes in one pass over the bytes (wire.go), a
// long leaves array on several goroutines, and accepts exactly the
// documents encoding/json would decode into the wire form above; bytes
// after the document's first JSON value are ignored.
func ReadJSON(r io.Reader) (*Snapshot, error) {
	body, err := readDocument(r)
	if err != nil {
		return nil, fmt.Errorf("kpi: read json: %w", err)
	}
	snap, _, err := ReadJSONStats(body)
	return snap, err
}

// WireStats describes one decoded document.
type WireStats struct {
	// Bytes is the length of the document as read.
	Bytes int
	// Parts is how many goroutines' parts of the leaves array (a delta's
	// updates array) were kept: 1 when it was decoded serially.
	Parts int
}

// ReadJSONStats is ReadJSON on a document already in memory, also
// reporting how it was decoded. The decoder neither writes to body nor
// keeps it: every name in the result is a copy.
func ReadJSONStats(body []byte) (*Snapshot, WireStats, error) {
	snap, parts, err := decodeSnapshotSplit(body, splitOffsets)
	return snap, WireStats{Bytes: len(body), Parts: parts}, err
}
