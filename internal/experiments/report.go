package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/methods"
)

// textTable renders rows as an aligned plain-text table.
func textTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// methodColumns derives the report columns from the measured per-method
// keys: the registered methods in table order (the paper's five in
// plotting order, then the extensions), then any others alphabetically.
func methodColumns(measured map[string]float64) []string {
	known := make(map[string]bool)
	var cols []string
	for _, m := range labels(methods.All()) {
		known[m] = true
		if _, ok := measured[m]; ok {
			cols = append(cols, m)
		}
	}
	var extras []string
	for m := range measured {
		if !known[m] {
			extras = append(extras, m)
		}
	}
	sort.Strings(extras)
	return append(cols, extras...)
}

// FormatFig8a renders the F1-score comparison on Squeeze-B0 (Fig. 8a).
func FormatFig8a(rows []SqueezeEvalRow) string {
	if len(rows) == 0 {
		return "Fig. 8(a) — F1-score on Squeeze-B0\n(no rows)\n"
	}
	cols := methodColumns(rows[0].F1)
	header := append([]string{"group"}, cols...)
	var out [][]string
	for _, r := range rows {
		cells := []string{r.Group.String()}
		for _, m := range cols {
			cells = append(cells, fmt.Sprintf("%.3f", r.F1[m]))
		}
		out = append(out, cells)
	}
	return "Fig. 8(a) — F1-score on Squeeze-B0\n" + textTable(header, out)
}

// FormatFig9a renders the runtime comparison on Squeeze-B0 (Fig. 9a).
func FormatFig9a(rows []SqueezeEvalRow) string {
	if len(rows) == 0 {
		return "Fig. 9(a) — mean running time on Squeeze-B0\n(no rows)\n"
	}
	cols := methodColumns(rows[0].MeanSeconds)
	header := append([]string{"group"}, cols...)
	var out [][]string
	for _, r := range rows {
		cells := []string{r.Group.String()}
		for _, m := range cols {
			cells = append(cells, fmt.Sprintf("%.4gs", r.MeanSeconds[m]))
		}
		out = append(out, cells)
	}
	return "Fig. 9(a) — mean running time on Squeeze-B0\n" + textTable(header, out)
}

// FormatFig8b renders the RC@k comparison on RAPMD (Fig. 8b) with a
// bootstrap 95% confidence interval on RC@3.
func FormatFig8b(rows []RAPMDEvalRow) string {
	header := []string{"method", "RC@3", "RC@3 95% CI", "RC@4", "RC@5"}
	var out [][]string
	for _, r := range rows {
		ci := "-"
		if r.RC3CI.NumTrue > 0 {
			ci = fmt.Sprintf("[%.1f%%, %.1f%%]", 100*r.RC3CI.Lo, 100*r.RC3CI.Hi)
		}
		out = append(out, []string{
			r.Method,
			fmt.Sprintf("%.1f%%", 100*r.RC[3]),
			ci,
			fmt.Sprintf("%.1f%%", 100*r.RC[4]),
			fmt.Sprintf("%.1f%%", 100*r.RC[5]),
		})
	}
	return "Fig. 8(b) — RC@k on RAPMD\n" + textTable(header, out)
}

// FormatFig9b renders the runtime comparison on RAPMD (Fig. 9b).
func FormatFig9b(rows []RAPMDEvalRow) string {
	header := []string{"method", "mean time"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Method, fmt.Sprintf("%.4gs", r.MeanSeconds)})
	}
	return "Fig. 9(b) — mean running time on RAPMD\n" + textTable(header, out)
}

// FormatFig10 renders a sensitivity sweep (Fig. 10a or 10b).
func FormatFig10(points []SensitivityPoint, param string) string {
	header := []string{param, "RC@3"}
	var out [][]string
	for _, p := range points {
		out = append(out, []string{
			fmt.Sprintf("%.4g", p.Threshold),
			fmt.Sprintf("%.1f%%", 100*p.RC3),
		})
	}
	return fmt.Sprintf("Fig. 10 — sensitivity of %s on RAPMD\n", param) + textTable(header, out)
}

// FormatTable4 renders the Table IV reproduction plus the measured
// deletion statistics.
func FormatTable4(rows []Table4Row, emp Table4Empirical) string {
	header := []string{"k", "DecreaseRatio@k (bound)", "exact (n=4)"}
	var out [][]string
	for _, r := range rows {
		exact := "-"
		if r.K <= 4 {
			exact = fmt.Sprintf("%.4f", r.ExactAtN4)
		}
		out = append(out, []string{
			fmt.Sprintf("%d", r.K),
			fmt.Sprintf("%.5f", r.LowerBound),
			exact,
		})
	}
	s := "Table IV — ratio of cuboids decreased after deleting redundant attributes\n" +
		textTable(header, out)
	s += fmt.Sprintf("\nMeasured on RAPMD at default t_CP: deleted-attribute histogram %v, mean decrease ratio %.3f\n",
		emp.DeletedHistogram, emp.MeanDecreaseRatio)
	return s
}

// FormatTable6 renders the deletion-ablation study (Table VI).
func FormatTable6(res Table6Result) string {
	header := []string{"method", "RC@3(%)", "time(s)"}
	out := [][]string{
		{res.With.Name, fmt.Sprintf("%.1f", 100*res.With.RC3), fmt.Sprintf("%.4g", res.With.MeanSeconds)},
		{res.Without.Name, fmt.Sprintf("%.1f", 100*res.Without.RC3), fmt.Sprintf("%.4g", res.Without.MeanSeconds)},
	}
	s := "Table VI — efficiency improvement of redundant attribute deletion\n" + textTable(header, out)
	s += fmt.Sprintf("\nEfficiency improvement: %.2f%%   Effectiveness decreased: %.2f%%\n",
		100*res.EfficiencyImprovement, 100*res.EffectivenessDecrease)
	return s
}
