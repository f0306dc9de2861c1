package langmodel

// addDocumentRef is the fold AddDocument was before it indexed a document's
// terms by slot and copied its new ones into one string: a count map and a
// first-seen list, then one add per distinct term, which clones the term
// the first time the model sees it. Its working memory is local here, as
// the fields it lived in are gone. It is the oracle FuzzAddDocument holds
// AddDocument to.
func addDocumentRef(m *Model, tokens []string) {
	m.mutable()
	counts := make(map[string]int, len(tokens))
	var distinct []string
	for _, t := range tokens {
		n := counts[t]
		if n == 0 {
			distinct = append(distinct, t)
		}
		counts[t] = n + 1
	}
	for _, t := range distinct {
		m.add(t, 1, int64(counts[t]), true)
	}
	m.totalCTF += int64(len(tokens))
	m.docs++
	m.version++
}
