// Package index implements the full-text retrieval substrate: an immutable
// compressed-sparse-row inverted index with ranked top-N search and document
// fetch. It plays the role the INQUERY engine played in the paper — the
// thing each *database* runs, with its own indexing conventions, that the
// sampler can only reach through "run a query, retrieve documents" (§3).
//
// Ranking uses the INQUERY belief function (0.4 + 0.6·T·I) by default, with
// Okapi BM25 as an alternative, so the ranked-result bias that query-based
// sampling must overcome is realistic.
package index

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/langmodel"
)

// Scoring selects the document-ranking function.
type Scoring int

const (
	// InQuery is the belief function used by the paper's retrieval engine:
	// 0.4 + 0.6 · T · I with T = tf/(tf + 0.5 + 1.5·dl/avgdl) and
	// I = log((N + 0.5)/df) / log(N + 1).
	InQuery Scoring = iota
	// BM25 is Okapi BM25 with k1 = 1.2, b = 0.75.
	BM25
)

func (s Scoring) String() string {
	switch s {
	case InQuery:
		return "inquery"
	case BM25:
		return "bm25"
	}
	return "unknown"
}

// posting is one document's frequency for a term; no pointer for GC to scan.
type posting struct {
	doc int32
	tf  int32
}

// Index is an immutable inverted index in compressed-sparse-row form: term
// t's row r = rows[t] holds postings[offsets[r]:offsets[r+1]], documents
// ascending, and ctf[r]. It is safe for concurrent readers.
type Index struct {
	analyzer analysis.Analyzer
	scoring  Scoring
	docs     []corpus.Document
	rows     map[string]int32
	offsets  []int
	postings []posting
	ctf      []int64
	docLens  []int32
	totalLen int64
}

// Build indexes docs in one pass. Document ids are positions in docs: the
// ids Search returns and Fetch accepts.
func Build(docs []corpus.Document, an analysis.Analyzer, scoring Scoring) *Index {
	ix := &Index{
		analyzer: an,
		scoring:  scoring,
		docs:     slices.Clone(docs),
		rows:     make(map[string]int32),
		docLens:  make([]int32, len(docs)),
	}
	// A run of equal rows in a document's sorted term rows is one posting.
	type run struct{ row, doc, tf int32 }
	var runs []run
	var tokens []string
	var ids []int32
	for d := range ix.docs {
		// Tokens are mostly slices of the text (analysis.Porter); a term's
		// first stays as its key in rows, pinning text kept for Fetch anyway.
		tokens = an.AppendTokens(tokens[:0], ix.docs[d].Text)
		ids = ids[:0]
		for _, t := range tokens {
			r, ok := ix.rows[t]
			if !ok {
				r = int32(len(ix.ctf))
				ix.rows[t], ix.ctf = r, append(ix.ctf, 0)
			}
			ix.ctf[r]++
			ids = append(ids, r)
		}
		slices.Sort(ids)
		for i, r := range ids {
			if i == 0 || r != ids[i-1] {
				runs = append(runs, run{row: r, doc: int32(d)})
			}
			runs[len(runs)-1].tf++
		}
		ix.docLens[d] = int32(len(tokens))
		ix.totalLen += int64(len(tokens))
	}
	// Counting sort by row; runs come in document order, as rows list them.
	ix.offsets = make([]int, len(ix.ctf)+1)
	for _, r := range runs {
		ix.offsets[r.row+1]++
	}
	for r := range ix.ctf {
		ix.offsets[r+1] += ix.offsets[r]
	}
	next := slices.Clone(ix.offsets)
	ix.postings = make([]posting, len(runs))
	for _, r := range runs {
		ix.postings[next[r.row]] = posting{doc: r.doc, tf: r.tf}
		next[r.row]++
	}
	return ix
}

// row returns a term's postings and ctf; nil and 0 if it is not indexed.
func (ix *Index) row(term string) ([]posting, int64) {
	r, ok := ix.rows[term]
	if !ok {
		return nil, 0
	}
	return ix.postings[ix.offsets[r]:ix.offsets[r+1]], ix.ctf[r]
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return len(ix.docs) }

// VocabSize returns the number of distinct index terms.
func (ix *Index) VocabSize() int { return len(ix.ctf) }

// TotalTerms returns the total number of term occurrences indexed.
func (ix *Index) TotalTerms() int64 { return ix.totalLen }

// DF returns the document frequency of an index term (0 if absent). The
// term must already be in the index's own vocabulary (i.e. analyzed).
func (ix *Index) DF(term string) int { p, _ := ix.row(term); return len(p) }

// CTF returns the collection term frequency of an index term.
func (ix *Index) CTF(term string) int64 { _, ctf := ix.row(term); return ctf }

// Analyzer returns the indexing pipeline, so experiments can normalize
// learned vocabularies to this database's conventions (§4.1).
func (ix *Index) Analyzer() analysis.Analyzer { return ix.analyzer }

// Hit is one ranked search result.
type Hit struct {
	Doc   int
	Score float64
}

// Search runs a free-text query and returns the ids of the top n documents
// by score, best first. It implements core.Database. A query whose terms
// are all unknown returns no hits — exactly the "failed query" case that
// inflates Table 3's query counts.
func (ix *Index) Search(query string, n int) ([]int, error) {
	hits, err := ix.SearchScored(query, n)
	if err != nil || len(hits) == 0 {
		return nil, err
	}
	ids := make([]int, len(hits))
	for i, h := range hits {
		ids[i] = h.Doc
	}
	return ids, nil
}

// searchScratch holds the per-query working memory of SearchScored — token
// list, dense score accumulator, and candidate hits — recycled through a
// pool so the serving hot path allocates only the result it returns.
//
// The accumulator uses generation marks instead of clearing: scores[doc] is
// valid only when mark[doc] equals the scratch's current generation, so
// "resetting" between queries is a single counter increment rather than an
// O(docs) zeroing pass.
type searchScratch struct {
	terms   []string
	scores  []float64
	mark    []uint32
	gen     uint32
	touched []int32
	hits    []Hit
}

var searchScratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// reset prepares the scratch for an index with nDocs documents.
func (s *searchScratch) reset(nDocs int) {
	if cap(s.scores) < nDocs {
		s.scores = make([]float64, nDocs)
		s.mark = make([]uint32, nDocs)
		s.gen = 0
	} else {
		s.scores = s.scores[:nDocs]
		s.mark = s.mark[:nDocs]
	}
	s.gen++
	if s.gen == 0 {
		// Generation counter wrapped: stale marks could collide, so pay the
		// one-time clear (once per 2^32 queries) over the full capacity.
		m := s.mark[:cap(s.mark)]
		for i := range m {
			m[i] = 0
		}
		s.gen = 1
	}
	s.terms = s.terms[:0]
	s.touched = s.touched[:0]
	s.hits = s.hits[:0]
}

// SearchScored is Search with the ranking scores included. Ties break by
// ascending document id so results are deterministic.
//
// Scoring accumulates into a dense pooled array keyed by document id — no
// per-query map, no per-posting hashing — and topN is the single sort site
// for every n. Per-document score accumulation stays in query-term order
// (first touch stores, later touches add, and x = 0 + x exactly), so the
// float64 results are bit-identical to the previous map-based accumulator.
func (ix *Index) SearchScored(query string, n int) ([]Hit, error) {
	if n <= 0 {
		return nil, nil
	}
	scr := searchScratchPool.Get().(*searchScratch)
	defer searchScratchPool.Put(scr)
	scr.reset(len(ix.docs))

	scr.terms = ix.analyzer.AppendTokens(scr.terms, query)
	if len(scr.terms) == 0 {
		return nil, nil
	}
	avgdl := ix.avgDocLen()
	for _, t := range scr.terms {
		plist, _ := ix.row(t)
		if len(plist) == 0 {
			continue
		}
		w := ix.termWeight(len(plist))
		for _, p := range plist {
			s := ix.termScore(float64(p.tf), float64(ix.docLens[p.doc]), w, avgdl)
			if scr.mark[p.doc] != scr.gen {
				scr.mark[p.doc] = scr.gen
				scr.scores[p.doc] = s
				scr.touched = append(scr.touched, p.doc)
			} else {
				scr.scores[p.doc] += s
			}
		}
	}
	if len(scr.touched) == 0 {
		return nil, nil
	}
	for _, doc := range scr.touched {
		scr.hits = append(scr.hits, Hit{Doc: int(doc), Score: scr.scores[doc]})
	}
	return topN(scr.hits, n), nil
}

// betterHit orders hits best-first: higher score, ties by ascending doc.
func betterHit(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Doc < b.Doc
}

// topN selects the n best hits with a bounded min-heap (the worst kept
// hit sits at the root), then sorts just those n. Ordering is identical
// to a full sort: betterHit is a total order (unique doc ids break score
// ties), so the heap keeps exactly the hits a full sort would return. When
// n covers all hits the heap degenerates to an insert-everything pass
// followed by the same sort, so there is a single sort site for every n.
// The returned slice is freshly allocated; hits may be caller-recycled.
func topN(hits []Hit, n int) []Hit {
	if n > len(hits) {
		n = len(hits)
	}
	heap := make([]Hit, 0, n)
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			worst := i
			if l < len(heap) && betterHit(heap[worst], heap[l]) {
				worst = l
			}
			if r < len(heap) && betterHit(heap[worst], heap[r]) {
				worst = r
			}
			if worst == i {
				return
			}
			heap[i], heap[worst] = heap[worst], heap[i]
			i = worst
		}
	}
	for _, h := range hits {
		if len(heap) < n {
			heap = append(heap, h)
			// Sift up.
			for i := len(heap) - 1; i > 0; {
				parent := (i - 1) / 2
				if !betterHit(heap[parent], heap[i]) {
					break
				}
				heap[i], heap[parent] = heap[parent], heap[i]
				i = parent
			}
			continue
		}
		if betterHit(h, heap[0]) {
			heap[0] = h
			siftDown(0)
		}
	}
	// slices.SortFunc rather than sort.Slice: the value comparator does not
	// capture heap, so sorting boxes nothing (sort.Slice converts the slice
	// to an interface and allocates the closure). betterHit is a total order
	// (doc ids are unique), so the unstable sort is deterministic.
	slices.SortFunc(heap, func(a, b Hit) int {
		if betterHit(a, b) {
			return -1
		}
		if betterHit(b, a) {
			return 1
		}
		return 0
	})
	return heap
}

func (ix *Index) avgDocLen() float64 {
	if len(ix.docs) == 0 {
		return 0
	}
	return float64(ix.totalLen) / float64(len(ix.docs))
}

// termWeight is the factor of a term's score that depends only on its df
// and the collection: BM25's idf, InQuery's normalized idf. SearchScored
// computes it once per query term and passes it to termScore.
func (ix *Index) termWeight(df int) float64 {
	n := float64(len(ix.docs))
	if ix.scoring == BM25 {
		idf := logf((n - float64(df) + 0.5) / (float64(df) + 0.5))
		if idf < 0 {
			idf = 0
		}
		return idf
	}
	return logf((n+0.5)/float64(df)) / logf(n+1)
}

// termScore is one posting's score given its term's weight w. The
// expression and its operand order are those of the per-posting formula,
// so scores are bit-identical to computing the weight at every posting.
func (ix *Index) termScore(tf, dl, w, avgdl float64) float64 {
	switch ix.scoring {
	case BM25:
		const k1, b = 1.2, 0.75
		denom := tf + k1*(1-b+b*dl/avgdl)
		return w * tf * (k1 + 1) / denom
	default: // InQuery
		t := tf / (tf + 0.5 + 1.5*dl/avgdl)
		return 0.4 + 0.6*t*w
	}
}

func logf(x float64) float64 { return math.Log(x) }

// TotalHits returns the number of documents matching the query (documents
// containing at least one query term). Real search services report this
// figure alongside their top results; the sample–resample size estimator
// (sizeest package) depends on it.
func (ix *Index) TotalHits(query string) (int, error) {
	terms := ix.analyzer.Tokens(query)
	if len(terms) == 0 {
		return 0, nil
	}
	if len(terms) == 1 {
		return ix.DF(terms[0]), nil
	}
	docs := make(map[int32]struct{})
	for _, t := range terms {
		plist, _ := ix.row(t)
		for _, p := range plist {
			docs[p.doc] = struct{}{}
		}
	}
	return len(docs), nil
}

// Fetch returns the document with the given internal id.
func (ix *Index) Fetch(id int) (corpus.Document, error) {
	if id < 0 || id >= len(ix.docs) {
		return corpus.Document{}, fmt.Errorf("index: no document with id %d", id)
	}
	return ix.docs[id], nil
}

// LanguageModel builds the *actual* language model of this database: df and
// ctf for every index term, under the database's own analyzer. This is what
// a fully cooperative provider would export, and the ground truth the
// experiments compare learned models against.
// Terms are inserted in sorted order, not map-iteration order: the model's
// positional term order feeds the sampler's query selector, so building the
// same index twice must yield models with identical draws.
func (ix *Index) LanguageModel() *langmodel.Model {
	terms := make([]string, 0, len(ix.rows))
	for t := range ix.rows {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	m := langmodel.New()
	for _, t := range terms {
		m.AddTerm(t, langmodel.TermStats{DF: ix.DF(t), CTF: ix.CTF(t)})
	}
	m.SetDocs(len(ix.docs))
	return m
}
