// Package summarize implements §7: presenting a learned language model to
// a person as a summary of what an unknown database is about. "A simple
// and well-known method of summarizing database contents is to display the
// terms that occur frequently and are not stopwords" — Table 4 is exactly
// such a display, ranked by avg-tf.
package summarize

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/analysis"
	"repro/internal/langmodel"
)

// Row is one term in a database summary, as GET
// /databases/{name}/summary serves it.
type Row struct {
	// Term is the displayed term.
	Term string `json:"term"`
	// DF, CTF and AvgTF are its learned statistics.
	DF    int     `json:"df"`
	CTF   int64   `json:"ctf"`
	AvgTF float64 `json:"avg_tf"`
}

// Top returns the k highest-ranked non-stopword terms of the model under
// the metric — the §7 browsing display. Terms shorter than 3 characters
// and numbers are skipped, matching the index-term conventions.
func Top(m *langmodel.Model, metric langmodel.RankMetric, k int, stop *analysis.Stoplist) []Row {
	if k <= 0 {
		return nil
	}
	rows := make([]Row, 0, k)
	for _, t := range m.TopTerms(metric, m.VocabSize()) {
		if len(t) < 3 || analysis.IsNumber(t) || stop.Contains(t) {
			continue
		}
		st, _ := m.Stats(t)
		rows = append(rows, Row{Term: t, DF: st.DF, CTF: st.CTF, AvgTF: st.AvgTF()})
		if len(rows) == k {
			break
		}
	}
	return rows
}

// Render writes rows the way Table 4 lays them out: five columns of
// term/value pairs, filling left to right.
func Render(w io.Writer, rows []Row, metric langmodel.RankMetric) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	const cols = 5
	for start := 0; start < len(rows); start += cols {
		end := start + cols
		if end > len(rows) {
			end = len(rows)
		}
		for _, r := range rows[start:end] {
			fmt.Fprintf(tw, "%s\t%.2f\t", r.Term, metricOf(r, metric))
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

func metricOf(r Row, metric langmodel.RankMetric) float64 {
	switch metric {
	case langmodel.ByDF:
		return float64(r.DF)
	case langmodel.ByCTF:
		return float64(r.CTF)
	default:
		return r.AvgTF
	}
}
