package lattice

import (
	"strings"
	"testing"

	"repro/internal/kpi"
)

// tableVSnapshot reproduces the schema behind Table V of the paper:
// A{a1..a3}, B{b1,b2}, C{c1,c2} (the fourth attribute is unconstrained in
// the walkthrough and omitted here), with (a1, *, *) anomalous.
func tableVSnapshot(t *testing.T) *kpi.Snapshot {
	t.Helper()
	s := kpi.MustSchema(
		kpi.Attribute{Name: "A", Values: []string{"a1", "a2", "a3"}},
		kpi.Attribute{Name: "B", Values: []string{"b1", "b2"}},
		kpi.Attribute{Name: "C", Values: []string{"c1", "c2"}},
	)
	rap := kpi.MustParseCombination(s, "(a1, *, *)")
	var leaves []kpi.Leaf
	for a := int32(0); a < 3; a++ {
		for b := int32(0); b < 2; b++ {
			for c := int32(0); c < 2; c++ {
				combo := kpi.Combination{a, b, c}
				leaves = append(leaves, kpi.Leaf{
					Combo: combo, Actual: 1, Forecast: 1,
					Anomalous: rap.Matches(combo),
				})
			}
		}
	}
	snap, err := kpi.NewSnapshot(s, leaves)
	if err != nil {
		t.Fatalf("NewSnapshot: %v", err)
	}
	return snap
}

func TestBuildMatchesTableVVertexCounts(t *testing.T) {
	snap := tableVSnapshot(t)
	g, err := Build(snap, []int{0, 1, 2}, 3)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Table V: layer 1 has 7 vertices (3 + 2 + 2), layer 2 has 16
	// (3*2 + 3*2 + 2*2), layer 3 has 12 (3*2*2).
	if got := g.NodesAtLayer(1); got != 7 {
		t.Errorf("layer 1 vertices = %d, want 7", got)
	}
	if got := g.NodesAtLayer(2); got != 16 {
		t.Errorf("layer 2 vertices = %d, want 16", got)
	}
	if got := g.NodesAtLayer(3); got != 12 {
		t.Errorf("layer 3 vertices = %d, want 12", got)
	}
}

func TestBuildEdgesLinkParents(t *testing.T) {
	snap := tableVSnapshot(t)
	g, err := Build(snap, []int{0, 1, 2}, 3)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Each layer-2 vertex has 2 parents; each layer-3 vertex has 3.
	inDegree := make(map[int]int)
	for _, e := range g.Edges {
		parent, child := g.Nodes[e[0]], g.Nodes[e[1]]
		if parent.Layer != child.Layer-1 {
			t.Fatalf("edge spans layers %d -> %d", parent.Layer, child.Layer)
		}
		if !parent.Combo.IsAncestorOf(child.Combo) {
			t.Fatalf("edge %v -> %v is not an ancestor link", parent.Combo, child.Combo)
		}
		inDegree[e[1]]++
	}
	for i, n := range g.Nodes {
		want := 0
		switch n.Layer {
		case 2:
			want = 2
		case 3:
			want = 3
		}
		if inDegree[i] != want {
			t.Errorf("vertex %v in-degree = %d, want %d", n.Combo, inDegree[i], want)
		}
	}
}

func TestBuildConfidenceAnnotations(t *testing.T) {
	snap := tableVSnapshot(t)
	g, err := Build(snap, []int{0, 1, 2}, 1)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	for _, n := range g.Nodes {
		want := snap.Confidence(n.Combo)
		if got := n.Confidence(); got != want {
			t.Errorf("%v confidence = %v, want %v", n.Combo, got, want)
		}
	}
	if (Node{}).Confidence() != 0 {
		t.Error("empty node confidence should be 0")
	}
}

func TestBuildValidation(t *testing.T) {
	snap := tableVSnapshot(t)
	if _, err := Build(snap, []int{0, 1, 2}, 0); err == nil {
		t.Error("maxLayer 0 accepted")
	}
	if _, err := Build(snap, []int{0, 1, 2}, 4); err == nil {
		t.Error("maxLayer beyond attrs accepted")
	}
}

func TestWriteDOT(t *testing.T) {
	snap := tableVSnapshot(t)
	g, err := Build(snap, []int{0, 1, 2}, 2)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	rap := kpi.MustParseCombination(snap.Schema, "(a1, *, *)")
	var b strings.Builder
	if err := g.WriteDOT(&b, []kpi.Combination{rap}, 0.8); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "digraph rap {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Error("DOT framing missing")
	}
	if !strings.Contains(out, `label="(a1, *, *)"`) {
		t.Error("vertex label missing")
	}
	// The RAP vertex is both anomalous (red) and highlighted.
	if !strings.Contains(out, `fillcolor="#f4cccc", peripheries=2`) {
		t.Error("anomalous highlighted vertex missing")
	}
	if !strings.Contains(out, "->") {
		t.Error("no edges emitted")
	}
}

func TestBuildDeterministic(t *testing.T) {
	snap := tableVSnapshot(t)
	a, err := Build(snap, []int{0, 1, 2}, 3)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	b, err := Build(snap, []int{0, 1, 2}, 3)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) {
		t.Fatal("graph sizes differ between builds")
	}
	for i := range a.Nodes {
		if !a.Nodes[i].Combo.Equal(b.Nodes[i].Combo) {
			t.Fatal("node order differs between builds")
		}
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("edge order differs between builds")
		}
	}
}

func TestBuildAnomalousFiltersCleanVertices(t *testing.T) {
	snap := tableVSnapshot(t)
	g, err := BuildAnomalous(snap, []int{0, 1, 2}, 3)
	if err != nil {
		t.Fatalf("BuildAnomalous: %v", err)
	}
	for _, n := range g.Nodes {
		if n.Anomalous == 0 {
			t.Errorf("clean vertex %v kept", n.Combo)
		}
	}
	// (a1, *, *) plus its descendants under attributes B and C:
	// layer 1: a1, b1, b2, c1, c2 (b and c each see a1's anomalies);
	// the layer counts must be strictly smaller than the full graph's.
	full, err := Build(snap, []int{0, 1, 2}, 3)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(g.Nodes) >= len(full.Nodes) {
		t.Errorf("anomalous sub-DAG (%d) not smaller than full DAG (%d)", len(g.Nodes), len(full.Nodes))
	}
	// The RAP itself must be present.
	rap := kpi.MustParseCombination(snap.Schema, "(a1, *, *)")
	found := false
	for _, n := range g.Nodes {
		if n.Combo.Equal(rap) {
			found = true
			break
		}
	}
	if !found {
		t.Error("RAP vertex missing from anomalous sub-DAG")
	}
}

// NodesAtLayer returns the vertex count per layer, mirroring the Table V
// vertex numbering ("1-1", "2-6", ...).
func (g *Graph) NodesAtLayer(layer int) int {
	n := 0
	for _, node := range g.Nodes {
		if node.Layer == layer {
			n++
		}
	}
	return n
}
