package langmodel

import "repro/internal/analysis"

// Normalize returns a new model whose terms have been passed through the
// analyzer: stopped terms are dropped and stemmed variants merged. This is
// the comparison protocol of §4.1 — learned models are built raw, and
// stemming/stopping is applied only when comparing against a database's
// (stemmed, stopped) actual model.
//
// The result is memoized per (analyzer, model version): normalizing an
// unchanged model with the same analyzer again returns the cached view
// instead of rebuilding it. Every per-snapshot metric and every oracle
// stop condition normalizes before comparing, so the cache removes a full
// vocabulary rebuild from those hot paths. The cached view is shared —
// callers must treat the returned model as read-only, which every caller
// in this repository already does.
//
// Merging variants sums df, which can overcount the true stem df when one
// document contains several variants of the same stem; the true value is
// unrecoverable from term-level statistics alone. The bias is small and
// identical across experiment arms, so comparisons remain valid.
func (m *Model) Normalize(an analysis.Analyzer) *Model {
	m.normMu.Lock()
	if m.normValid && m.normAn == an && m.normVersion == m.version {
		out := m.normVal
		m.normMu.Unlock()
		return out
	}
	version := m.version
	m.normMu.Unlock()

	out := &Model{
		order: make([]string, 0, len(m.order)),
		stats: make([]TermStats, 0, len(m.order)),
		index: make([]int32, indexSize(len(m.order))),
		docs:  m.docs,
	}
	for i, t := range m.order {
		nt, ok := an.Term(t)
		if !ok {
			continue
		}
		st := m.stats[i]
		// nt is t, a prefix of t, or a string Porter made: nothing to clone.
		out.add(nt, st.DF, st.CTF, false)
		out.totalCTF += st.CTF
	}

	m.normMu.Lock()
	m.normVal, m.normAn, m.normVersion, m.normValid = out, an, version, true
	m.normMu.Unlock()
	return out
}

// Restrict returns a copy of m containing only terms present in other's
// vocabulary. Controlled comparisons in the paper consider "only ... words
// that appeared in both language models" (§4.1).
func (m *Model) Restrict(other *Model) *Model {
	out := New()
	out.docs = m.docs
	for i, t := range m.order {
		if other.Contains(t) {
			st := m.stats[i]
			out.bump(t, st.DF, st.CTF)
			out.totalCTF += st.CTF
		}
	}
	return out
}

// Prune returns a copy of m without terms whose document frequency is
// below minDF. About half of a text database's vocabulary occurs exactly
// once (§4.3.1); a selection service indexing "millions of databases" (§1)
// can shed that tail with almost no effect on selection accuracy — the
// ext ablation BenchmarkAblationPruning quantifies the trade.
// Document counts are preserved; totals shrink by the pruned mass.
func (m *Model) Prune(minDF int) *Model {
	out := New()
	out.docs = m.docs
	for i, t := range m.order {
		st := m.stats[i]
		if st.DF < minDF {
			continue
		}
		out.bump(t, st.DF, st.CTF)
		out.totalCTF += st.CTF
	}
	return out
}
