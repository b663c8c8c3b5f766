// Package lattice materializes the attribute-combination DAG of Fig. 7 in
// the RAPMiner paper: each vertex is an observed attribute combination,
// each edge links a parent to a child one layer down, and vertices carry
// the anomaly-confidence statistics the search uses. The graph can be
// rendered to Graphviz DOT with anomalous vertices and localized RAPs
// highlighted, reproducing the paper's walkthrough figures.
package lattice

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/kpi"
)

// Node is one vertex of the DAG.
type Node struct {
	Combo     kpi.Combination
	Layer     int
	Total     int
	Anomalous int
}

// Confidence returns the vertex's anomaly confidence.
func (n Node) Confidence() float64 {
	if n.Total == 0 {
		return 0
	}
	return float64(n.Anomalous) / float64(n.Total)
}

// Graph is the combination DAG down to a chosen layer.
type Graph struct {
	Schema *kpi.Schema
	Nodes  []Node
	// Edges holds (parent, child) pairs as indexes into Nodes.
	Edges [][2]int
}

// MaxNodes bounds graph construction; the DAG is a visualization aid for
// example-scale schemas, not for the full CDN lattice.
const MaxNodes = 5000

// Build constructs the DAG of every combination observed in the snapshot
// over the given attributes, from layer 1 down to maxLayer.
func Build(snap *kpi.Snapshot, attrs []int, maxLayer int) (*Graph, error) {
	return build(snap, attrs, maxLayer, false)
}

// BuildAnomalous is Build restricted to combinations with at least one
// anomalous leaf descendant — the sub-DAG Fig. 7 actually draws. It keeps
// example graphs readable on large snapshots.
func BuildAnomalous(snap *kpi.Snapshot, attrs []int, maxLayer int) (*Graph, error) {
	return build(snap, attrs, maxLayer, true)
}

func build(snap *kpi.Snapshot, attrs []int, maxLayer int, onlyAnomalous bool) (*Graph, error) {
	if maxLayer < 1 || maxLayer > len(attrs) {
		return nil, fmt.Errorf("lattice: maxLayer %d out of [1, %d]", maxLayer, len(attrs))
	}
	g := &Graph{Schema: snap.Schema}
	index := make(map[string]int)
	for layer := 1; layer <= maxLayer; layer++ {
		for _, cuboid := range kpi.CuboidsAtLayer(attrs, layer) {
			ix := snap.Indexer(cuboid)
			for _, stats := range snap.GroupBy(cuboid) {
				if onlyAnomalous && stats.Anomalous == 0 {
					continue
				}
				if len(g.Nodes) >= MaxNodes {
					return nil, fmt.Errorf("lattice: graph exceeds %d nodes; restrict attrs or maxLayer", MaxNodes)
				}
				combo := make(kpi.Combination, snap.Schema.NumAttributes())
				snap.DecodeGroup(ix, stats.Group, combo)
				index[combo.Key()] = len(g.Nodes)
				g.Nodes = append(g.Nodes, Node{
					Combo:     combo,
					Layer:     layer,
					Total:     stats.Total,
					Anomalous: stats.Anomalous,
				})
			}
		}
	}
	// Edges: a child links to each immediate parent present in the graph.
	for childIdx, child := range g.Nodes {
		if child.Layer == 1 {
			continue
		}
		for _, parent := range child.Combo.Parents() {
			if parentIdx, ok := index[parent.Key()]; ok {
				g.Edges = append(g.Edges, [2]int{parentIdx, childIdx})
			}
		}
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		if g.Edges[i][0] != g.Edges[j][0] {
			return g.Edges[i][0] < g.Edges[j][0]
		}
		return g.Edges[i][1] < g.Edges[j][1]
	})
	return g, nil
}

// WriteDOT renders the graph in Graphviz DOT. Vertices whose confidence
// exceeds tConf are filled red (the paper's anomalous vertices); vertices
// in highlight (e.g. the localized RAPs) get a double border.
func (g *Graph) WriteDOT(w io.Writer, highlight []kpi.Combination, tConf float64) error {
	highlighted := make(map[string]struct{}, len(highlight))
	for _, h := range highlight {
		highlighted[h.Key()] = struct{}{}
	}
	if _, err := fmt.Fprintln(w, "digraph rap {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=TB;")
	fmt.Fprintln(w, `  node [shape=ellipse, style=filled, fillcolor=white];`)
	for i, n := range g.Nodes {
		attrs := fmt.Sprintf("label=%q", n.Combo.Format(g.Schema))
		if n.Confidence() > tConf {
			attrs += `, fillcolor="#f4cccc"`
		}
		if _, ok := highlighted[n.Combo.Key()]; ok {
			attrs += `, peripheries=2, penwidth=2`
		}
		if _, err := fmt.Fprintf(w, "  n%d [%s];\n", i, attrs); err != nil {
			return err
		}
	}
	for _, e := range g.Edges {
		if _, err := fmt.Fprintf(w, "  n%d -> n%d;\n", e[0], e[1]); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}
