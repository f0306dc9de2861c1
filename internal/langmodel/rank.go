package langmodel

import "sort"

// RankMetric selects the frequency statistic used to order terms.
type RankMetric int

const (
	// ByDF orders by document frequency (the paper's primary ranking, §4.3.3).
	ByDF RankMetric = iota
	// ByCTF orders by collection term frequency.
	ByCTF
	// ByAvgTF orders by average term frequency ctf/df (§5.2, Table 4).
	ByAvgTF
)

func (r RankMetric) String() string {
	switch r {
	case ByDF:
		return "df"
	case ByCTF:
		return "ctf"
	case ByAvgTF:
		return "avg-tf"
	}
	return "unknown"
}

// value returns the metric value for a term's stats.
func (r RankMetric) value(st TermStats) float64 {
	switch r {
	case ByDF:
		return float64(st.DF)
	case ByCTF:
		return float64(st.CTF)
	case ByAvgTF:
		return st.AvgTF()
	}
	return 0
}

// TopTerms returns the n highest-ranked terms under the metric, most
// frequent first. Ties break alphabetically for determinism. This is the §7
// database-summary primitive.
func (m *Model) TopTerms(metric RankMetric, n int) []string {
	terms := m.Vocabulary()
	values := make(map[string]float64, len(terms))
	for _, t := range terms {
		st, _ := m.lookup(t)
		values[t] = metric.value(st)
	}
	sort.SliceStable(terms, func(i, j int) bool {
		vi, vj := values[terms[i]], values[terms[j]]
		if vi != vj {
			return vi > vj
		}
		return terms[i] < terms[j]
	})
	if n > len(terms) {
		n = len(terms)
	}
	return terms[:n]
}

// Ranks returns the fractional (tie-averaged) rank of every term under the
// metric: the most frequent term has rank 1, and terms with equal metric
// values share the average of the ranks they would occupy. Fractional ranks
// are what rank-correlation statistics require when ties are massive, as
// they are for df-ranked vocabularies (half the vocabulary has df == 1).
func (m *Model) Ranks(metric RankMetric) map[string]float64 {
	return m.ranks(metric, false)
}

// DenseRanks returns dense ranks: terms with equal metric values share one
// rank value, and the next distinct value takes the next integer
// (1, 2, 2, 3...). This is the paper's rank convention — "multiple terms
// can occupy each rank, as is usually the case in language models" (§6) —
// used by its Spearman formula and by rdiff.
func (m *Model) DenseRanks(metric RankMetric) map[string]float64 {
	return m.ranks(metric, true)
}

func (m *Model) ranks(metric RankMetric, dense bool) map[string]float64 {
	type tv struct {
		term string
		v    float64
	}
	items := make([]tv, 0, len(m.order))
	for i, t := range m.order {
		items = append(items, tv{t, metric.value(m.stats[i])})
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].v != items[j].v {
			return items[i].v > items[j].v
		}
		return items[i].term < items[j].term
	})
	ranks := make(map[string]float64, len(items))
	denseRank := 0
	for i := 0; i < len(items); {
		j := i
		for j < len(items) && items[j].v == items[i].v {
			j++
		}
		denseRank++
		// items[i:j] tie: they share one rank value.
		v := float64(i+j+1) / 2 // fractional: mean of positions i+1 .. j
		if dense {
			v = float64(denseRank)
		}
		for k := i; k < j; k++ {
			ranks[items[k].term] = v
		}
		i = j
	}
	return ranks
}
