// Package explain turns one localization run into a stored, servable,
// human-readable explain report. A RAPMiner run's report carries its
// rapminer.Diagnostics: which attributes survived the CP cut (Algorithm 1),
// how much of the cuboid lattice each layer of the AC-guided search scanned
// and pruned (Algorithm 2), and the full ranked candidate set behind the
// returned RAPs (Eq. 3). Any other method's report carries the run's
// returned patterns. Reports are keyed by trace ID, so the span tree at
// /debug/spans and the report at /debug/runs/{id} describe the same run.
package explain

import (
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/kpi"
	"repro/internal/localize"
	"repro/internal/rapminer"
)

// Report is one localization run's explain journal, JSON-servable at
// /debug/runs/{trace-id} and renderable as text by `rapmctl explain`.
type Report struct {
	// TraceID keys the report; it equals the run's span-tree trace ID.
	TraceID string    `json:"trace_id"`
	Time    time.Time `json:"time"`
	// Source names the subsystem that ran the localization: "httpapi"
	// for POST /v1/localize, "pipeline" for monitor-driven runs.
	Source string `json:"source"`
	Method string `json:"method"`
	K      int    `json:"k"`
	// Leaves and AnomalousLeaves describe the input snapshot.
	Leaves          int     `json:"leaves"`
	AnomalousLeaves int     `json:"anomalous_leaves"`
	ElapsedMS       float64 `json:"elapsed_ms"`

	// PatternsOnly marks the report of a method without RAPMiner's search
	// journal: it leaves the Algorithm 1 and 2 fields below and the
	// candidate set empty and lists Patterns instead.
	PatternsOnly bool `json:"patterns_only,omitempty"`

	// TCP and TConf echo the run's thresholds (t_CP, t_conf).
	TCP   float64 `json:"t_cp"`
	TConf float64 `json:"t_conf"`

	// Attributes holds Algorithm 1's verdict for every attribute.
	Attributes []AttributeVerdict `json:"attributes"`

	// Lattice sizes and total search effort (Algorithm 2).
	CuboidsTotal        int `json:"cuboids_total"`
	CuboidsSearchable   int `json:"cuboids_searchable"`
	CuboidsVisited      int `json:"cuboids_visited"`
	CombinationsScanned int `json:"combinations_scanned"`
	CombinationsPruned  int `json:"combinations_pruned"`

	// Layers journals per-layer effort, in layer order.
	Layers []rapminer.LayerStats `json:"layers"`

	// EarlyStopped and EarlyStopLayer report the Algorithm 2 early stop.
	EarlyStopped   bool `json:"early_stopped"`
	EarlyStopLayer int  `json:"early_stop_layer,omitempty"`

	// Degraded reports a run cut off by cancellation or deadline;
	// the candidate set is the best-so-far prefix of the search.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`

	// Candidates is the full candidate set in ranked order; the first
	// min(K, len) entries are what the caller received.
	Candidates []Candidate `json:"candidates"`

	// Patterns is what a method without a search journal returned, in
	// rank order.
	Patterns []Pattern `json:"patterns,omitempty"`
}

// Pattern is one returned pattern of a method without a search journal.
type Pattern struct {
	Rank        int      `json:"rank"`
	Combination []string `json:"combination"`
	Score       float64  `json:"score"`
}

// AttributeVerdict is one attribute's Algorithm 1 outcome.
type AttributeVerdict struct {
	Attr int     `json:"attr"`
	Name string  `json:"name"`
	CP   float64 `json:"cp"`
	// Kept reports whether CP > t_CP (Criteria 1) let the attribute
	// survive into the search.
	Kept bool `json:"kept"`
}

// Candidate is one ranked RAP candidate with the statistics behind Eq. 3.
type Candidate struct {
	Rank int `json:"rank"`
	// Combination is the schema-resolved pattern, one token per
	// attribute ("*" for wildcard).
	Combination     []string `json:"combination"`
	Confidence      float64  `json:"confidence"`
	Layer           int      `json:"layer"`
	RAPScore        float64  `json:"rap_score"`
	AnomalousLeaves int      `json:"anomalous_leaves"`
	TotalLeaves     int      `json:"total_leaves"`
	// Returned reports whether the candidate made the top-k reply.
	Returned bool `json:"returned"`
}

// New builds a report from one run's inputs and journal. The snapshot is
// only read for its schema and leaf counts.
func New(traceID, source, method string, snap *kpi.Snapshot, k int, diag rapminer.Diagnostics, elapsed time.Duration) Report {
	r := Report{
		TraceID:             traceID,
		Time:                time.Now().UTC(),
		Source:              source,
		Method:              method,
		K:                   k,
		Leaves:              snap.Len(),
		AnomalousLeaves:     snap.NumAnomalous(),
		ElapsedMS:           float64(elapsed.Microseconds()) / 1000,
		TCP:                 diag.TCP,
		TConf:               diag.TConf,
		CuboidsTotal:        diag.CuboidsTotal,
		CuboidsSearchable:   diag.CuboidsSearchable,
		CuboidsVisited:      diag.CuboidsVisited,
		CombinationsScanned: diag.CombinationsScanned,
		CombinationsPruned:  diag.CombinationsPruned,
		Layers:              append([]rapminer.LayerStats(nil), diag.Layers...),
		EarlyStopped:        diag.EarlyStopped,
		EarlyStopLayer:      diag.EarlyStopLayer,
		Degraded:            diag.Degraded,
		DegradedReason:      diag.DegradedReason,
	}

	kept := make(map[int]bool, len(diag.KeptAttributes))
	for _, a := range diag.KeptAttributes {
		kept[a] = true
	}
	r.Attributes = make([]AttributeVerdict, 0, len(diag.CPs))
	for _, cp := range diag.CPs {
		r.Attributes = append(r.Attributes, AttributeVerdict{
			Attr: cp.Attr,
			Name: snap.Schema.Attribute(cp.Attr).Name,
			CP:   cp.CP,
			Kept: kept[cp.Attr],
		})
	}

	r.Candidates = make([]Candidate, 0, len(diag.CandidateSet))
	for i, c := range diag.CandidateSet {
		r.Candidates = append(r.Candidates, Candidate{
			Rank:            i + 1,
			Combination:     comboTokens(snap.Schema, c.Combo),
			Confidence:      c.Confidence,
			Layer:           c.Layer,
			RAPScore:        c.RAPScore,
			AnomalousLeaves: c.AnomalousLeaves,
			TotalLeaves:     c.TotalLeaves,
			Returned:        i < k,
		})
	}
	return r
}

// NewResult builds the report of a method without a search journal from
// the result it returned.
func NewResult(traceID, source, method string, snap *kpi.Snapshot, k int, res localize.Result, elapsed time.Duration) Report {
	r := Report{
		TraceID:         traceID,
		Time:            time.Now().UTC(),
		Source:          source,
		Method:          method,
		K:               k,
		Leaves:          snap.Len(),
		AnomalousLeaves: snap.NumAnomalous(),
		ElapsedMS:       float64(elapsed.Microseconds()) / 1000,
		PatternsOnly:    true,
		Degraded:        res.Degraded,
		DegradedReason:  res.DegradedReason,
		Patterns:        make([]Pattern, len(res.Patterns)),
	}
	for i, p := range res.Patterns {
		r.Patterns[i] = Pattern{Rank: i + 1, Combination: comboTokens(snap.Schema, p.Combo), Score: p.Score}
	}
	return r
}

// comboTokens resolves a combination to schema value tokens.
func comboTokens(s *kpi.Schema, c kpi.Combination) []string {
	out := make([]string, len(c))
	for a, code := range c {
		if code == kpi.Wildcard {
			out[a] = kpi.WildcardToken
		} else {
			out[a] = s.Value(a, code)
		}
	}
	return out
}

// Render writes the report as a human-readable explanation, the format
// `rapmctl explain` prints. Reports without a search journal render their
// returned patterns instead of the Algorithm 1 and 2 sections.
func (r Report) Render(w io.Writer) {
	fmt.Fprintf(w, "run %s\n", r.TraceID)
	fmt.Fprintf(w, "  time      %s\n", r.Time.Format(time.RFC3339))
	fmt.Fprintf(w, "  source    %s  method %s  k=%d\n", r.Source, r.Method, r.K)
	fmt.Fprintf(w, "  snapshot  %d leaves, %d anomalous\n", r.Leaves, r.AnomalousLeaves)
	fmt.Fprintf(w, "  elapsed   %.3f ms\n", r.ElapsedMS)
	if r.PatternsOnly {
		if r.Degraded {
			fmt.Fprintf(w, "  DEGRADED (%s): run cut off, patterns are best-so-far only\n", r.DegradedReason)
		}
		fmt.Fprintf(w, "\npatterns\n")
		if len(r.Patterns) == 0 {
			fmt.Fprintln(w, "  (none)")
		}
		for _, p := range r.Patterns {
			fmt.Fprintf(w, "  %2d. (%s)  score %.4f\n", p.Rank, strings.Join(p.Combination, ", "), p.Score)
		}
		return
	}

	fmt.Fprintf(w, "\nstage 1 — attribute deletion (t_CP = %g, Algorithm 1)\n", r.TCP)
	for _, a := range r.Attributes {
		verdict := "deleted"
		if a.Kept {
			verdict = "kept"
		}
		fmt.Fprintf(w, "  %-16s CP %.6f  %s\n", a.Name, a.CP, verdict)
	}
	fmt.Fprintf(w, "  lattice: %d cuboids total -> %d searchable\n",
		r.CuboidsTotal, r.CuboidsSearchable)

	fmt.Fprintf(w, "\nstage 2 — AC-guided search (t_conf = %g, Algorithm 2)\n", r.TConf)
	for _, l := range r.Layers {
		fmt.Fprintf(w, "  layer %d: %d cuboids, %d combinations scanned, %d pruned, %d candidates"+
			" (%d leaf passes, %d cuboids scanned, %d rolled up)\n",
			l.Layer, l.Cuboids, l.Combinations, l.Pruned, l.Candidates,
			l.ScanPasses, l.FusedCuboids, l.RollupServed)
	}
	fmt.Fprintf(w, "  visited %d/%d cuboids, scanned %d combinations, pruned %d (Criteria 3)\n",
		r.CuboidsVisited, r.CuboidsSearchable, r.CombinationsScanned, r.CombinationsPruned)
	switch {
	case r.Degraded:
		fmt.Fprintf(w, "  DEGRADED (%s): search cut off, candidates are best-so-far only\n", r.DegradedReason)
	case r.EarlyStopped:
		fmt.Fprintf(w, "  early stop at layer %d: candidates cover every anomalous leaf\n", r.EarlyStopLayer)
	default:
		fmt.Fprintln(w, "  no early stop: search exhausted the lattice")
	}

	fmt.Fprintf(w, "\ncandidates (RAPScore = Confidence / sqrt(Layer), Eq. 3)\n")
	if len(r.Candidates) == 0 {
		fmt.Fprintln(w, "  (none)")
		return
	}
	for _, c := range r.Candidates {
		marker := " "
		if c.Returned {
			marker = "*"
		}
		fmt.Fprintf(w, "%s %2d. (%s)  conf %.4f  layer %d  score %.4f  (%d/%d leaves)\n",
			marker, c.Rank, strings.Join(c.Combination, ", "),
			c.Confidence, c.Layer, c.RAPScore, c.AnomalousLeaves, c.TotalLeaves)
	}
	fmt.Fprintln(w, "  (* = returned in the top-k reply)")
}
