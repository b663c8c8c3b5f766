package kpi

import (
	"fmt"
	"sort"
)

// Table holds several fundamental KPI metrics for the same set of leaves,
// e.g. the CDN simulator's out-flow, request and cache-hit counts at one
// timestamp. Derived KPIs (Section III-A of the paper) are computed from
// fundamental columns with Derive after any aggregation.
type Table struct {
	Schema  *Schema
	Combos  []Combination
	columns map[string][]float64
}

// NewTable creates an empty table over the given leaves. Every leaf must be
// fully constrained and unique.
func NewTable(schema *Schema, combos []Combination) (*Table, error) {
	seen := make(map[string]struct{}, len(combos))
	for i, c := range combos {
		if len(c) != schema.NumAttributes() || !c.IsLeaf() {
			return nil, fmt.Errorf("kpi: table row %d is not a leaf combination", i)
		}
		k := c.Key()
		if _, dup := seen[k]; dup {
			return nil, fmt.Errorf("kpi: duplicate table row %s", c.Format(schema))
		}
		seen[k] = struct{}{}
	}
	return &Table{
		Schema:  schema,
		Combos:  combos,
		columns: make(map[string][]float64),
	}, nil
}

// Len returns the number of rows (leaves).
func (t *Table) Len() int { return len(t.Combos) }

// SetColumn installs a metric column; its length must equal Len.
func (t *Table) SetColumn(name string, values []float64) error {
	if len(values) != t.Len() {
		return fmt.Errorf("kpi: column %q has %d values, table has %d rows",
			name, len(values), t.Len())
	}
	t.columns[name] = values
	return nil
}

// Column returns a metric column by name.
func (t *Table) Column(name string) ([]float64, bool) {
	c, ok := t.columns[name]
	return c, ok
}

// Columns returns the metric names in sorted order.
func (t *Table) Columns() []string {
	names := make([]string, 0, len(t.columns))
	for n := range t.columns {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Derive adds a new column computed row-wise from existing columns. fn
// receives the values of the from columns in order. Use it for derived KPIs
// such as cache-hit ratio = hits / requests.
func (t *Table) Derive(name string, from []string, fn func(vals []float64) float64) error {
	src := make([][]float64, len(from))
	for i, f := range from {
		c, ok := t.columns[f]
		if !ok {
			return fmt.Errorf("kpi: derive %q: no column %q", name, f)
		}
		src[i] = c
	}
	out := make([]float64, t.Len())
	vals := make([]float64, len(from))
	for row := range out {
		for i := range src {
			vals[i] = src[i][row]
		}
		out[row] = fn(vals)
	}
	t.columns[name] = out
	return nil
}

// AggregateBy sums every fundamental column of the table grouped by the
// cuboid's attributes (Fig. 4 of the paper). The result maps combination
// keys to per-column sums, in the same column order as cols.
func (t *Table) AggregateBy(c Cuboid, cols []string) (map[string][]float64, error) {
	src := make([][]float64, len(cols))
	for i, name := range cols {
		col, ok := t.columns[name]
		if !ok {
			return nil, fmt.Errorf("kpi: no column %q", name)
		}
		src[i] = col
	}
	out := make(map[string][]float64)
	for row, combo := range t.Combos {
		k := combo.Project(c).Key()
		sums, ok := out[k]
		if !ok {
			sums = make([]float64, len(cols))
			out[k] = sums
		}
		for i := range src {
			sums[i] += src[i][row]
		}
	}
	return out, nil
}
