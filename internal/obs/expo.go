package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// famView is a consistent copy of one family's structure taken under the
// registry lock. Series pointers are shared with live writers — metric
// reads are atomic, so exposition is consistent per value, not across
// values, which is the usual scrape contract.
type famView struct {
	name    string
	help    string
	kind    metricKind
	ordered []*series
}

// WritePrometheus renders every registered metric in the classic
// Prometheus text exposition format (version 0.0.4): families sorted by
// name, series sorted by label set, histograms expanded into cumulative
// _bucket/_sum/_count. Exemplars are never emitted here — the 0.0.4
// grammar only allows comments at the start of a line and has no exemplar
// syntax, so a trailing `# {...}` would make the official parser reject
// the whole scrape. Scrapers that want exemplars negotiate the OpenMetrics
// format (see WriteOpenMetrics).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeExposition(w, false)
}

// WriteOpenMetrics renders the registry in the OpenMetrics text format
// (version 1.0.0): counter families drop the `_total` suffix on their
// HELP/TYPE lines while their samples keep it, histogram buckets carry
// their trace exemplars as `# {trace_id="..."} value ts` suffixes, and the
// document ends with the mandatory `# EOF` terminator.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if err := r.writeExposition(w, true); err != nil {
		return err
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func (r *Registry) writeExposition(w io.Writer, openMetrics bool) error {
	for _, fam := range r.snapshot() {
		famName := fam.name
		if openMetrics && fam.kind == counterKind {
			famName = strings.TrimSuffix(famName, "_total")
		}
		if fam.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", famName, escapeHelp(fam.help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", famName, fam.kind); err != nil {
			return err
		}
		for _, s := range fam.ordered {
			if err := writeSeries(w, fam, s, openMetrics); err != nil {
				return err
			}
		}
	}
	return nil
}

// snapshot copies the family structure (names and sorted series lists)
// under the registry lock, sorted by family name.
func (r *Registry) snapshot() []famView {
	r.mu.Lock()
	fams := make([]famView, 0, len(r.families))
	for _, f := range r.families {
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make([]*series, 0, len(keys))
		for _, k := range keys {
			ordered = append(ordered, f.series[k])
		}
		fams = append(fams, famView{name: f.name, help: f.help, kind: f.kind, ordered: ordered})
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func writeSeries(w io.Writer, fam famView, s *series, openMetrics bool) error {
	switch fam.kind {
	case counterKind:
		name := fam.name
		if openMetrics && !strings.HasSuffix(name, "_total") {
			// OpenMetrics counter samples must carry the _total suffix;
			// every counter in this repo already does, so this only fires
			// for out-of-convention names.
			name += "_total"
		}
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, formatLabels(s.labels), formatValue(s.counter.Value()))
		return err
	case gaugeKind:
		_, err := fmt.Fprintf(w, "%s%s %s\n", fam.name, formatLabels(s.labels), formatValue(s.gauge.Value()))
		return err
	case histogramKind:
		h := s.hist
		exemplar := func(i int) string {
			if !openMetrics {
				return ""
			}
			return formatExemplar(h.exemplarAt(i))
		}
		cum := uint64(0)
		for i, ub := range h.upper {
			cum += h.counts[i].Load()
			le := append(append([]string{}, s.labels...), "le", formatValue(ub))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n",
				fam.name, formatLabels(le), cum, exemplar(i)); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.upper)].Load()
		le := append(append([]string{}, s.labels...), "le", "+Inf")
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d%s\n",
			fam.name, formatLabels(le), cum, exemplar(len(h.upper))); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fam.name, formatLabels(s.labels), formatValue(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", fam.name, formatLabels(s.labels), h.Count())
		return err
	}
	return nil
}

// formatLabels renders {k="v",...} or "" for the empty label set. The "le"
// label of histogram buckets is appended last by writeSeries, matching the
// Prometheus client's ordering.
func formatLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pairs[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(pairs[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a float the way the Prometheus text format expects.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatExemplar renders a bucket's exemplar as an OpenMetrics suffix
// (` # {trace_id="..."} value timestamp`), or "" when the bucket has none.
// Only the OpenMetrics exposition may carry this — the classic 0.0.4
// grammar has no exemplar syntax and its parsers reject trailing '#'.
func formatExemplar(e *Exemplar) string {
	if e == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %s %.3f",
		e.TraceID, formatValue(e.Value), float64(e.Time.UnixMilli())/1000)
}

// Handler serves the registry in Prometheus text format (mount at
// GET /metrics). Scrapers that negotiate OpenMetrics via the Accept
// header (as Prometheus does when exemplar ingestion is enabled) get the
// OpenMetrics exposition with exemplars; everyone else gets the classic
// 0.0.4 format, which cannot legally carry them.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if acceptsOpenMetrics(req.Header.Get("Accept")) {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			_ = r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// acceptsOpenMetrics reports whether an Accept header asks for the
// OpenMetrics text format with a non-zero quality. Full q-value ordering
// is not needed: a scraper that lists application/openmetrics-text at all
// can parse it, and one that cannot never sends it.
func acceptsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mediaType, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(mediaType) != "application/openmetrics-text" {
			continue
		}
		for _, p := range strings.Split(params, ";") {
			if k, v, ok := strings.Cut(strings.TrimSpace(p), "="); ok && strings.TrimSpace(k) == "q" {
				if q, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil && q == 0 {
					return false
				}
			}
		}
		return true
	}
	return false
}
