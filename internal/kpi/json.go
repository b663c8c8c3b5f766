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
	snap, _, err := ReadJSONStats(r)
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

// ReadJSONStats is ReadJSON, also reporting how the document was decoded.
func ReadJSONStats(r io.Reader) (*Snapshot, WireStats, error) {
	body, err := readDocument(r)
	st := WireStats{Bytes: len(body), Parts: 1}
	if err != nil {
		return nil, st, fmt.Errorf("kpi: read json: %w", err)
	}
	snap, parts, err := decodeSnapshotSplit(body, splitOffsets)
	st.Parts = parts
	return snap, st, err
}
