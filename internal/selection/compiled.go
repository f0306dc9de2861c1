package selection

// Compiled selection snapshots: the zero-allocation serving form of a set
// of language models. The published selection algorithms (CORI, GlOSS)
// consult only precomputed per-database statistics — df per term, docs,
// collection size — never a live index, so a frozen model set can be
// compiled once into flat arrays and served lock-free forever after:
//
//   - every term across every model is interned into one dictionary, so a
//     query is resolved to integer term ids once and scored by id;
//   - per-term document frequencies live in a CSR postings layout
//     (term id -> sorted (database, df) pairs) instead of per-model hash
//     maps.
//
// CORI's federation statistics are derived at scoring time from counts the
// layout already holds, and stored nowhere: a term's cf is its row's
// posting count, so its I component (rowIDF) costs one log per query term,
// and avg_cw comes from the exact integer sum of the cw column (avgCW).
// The map scorer calls the same two functions.
//
// Scoring never allocates: callers pass in the id, score and ranking
// buffers, which a serving layer recycles through a sync.Pool.
//
// Equivalence contract: for CORI and both GlOSS estimators (at any
// threshold), a Compiled set produces bit-for-bit the float64 scores of
// the map-based Algorithm.Scores over the same models in the same order.
// The arithmetic below deliberately mirrors selection.go expression by
// expression — same operand grouping, same accumulation order (query-term
// major, database minor) — because IEEE 754 addition is not associative
// and "almost the same" would break ranking golden tests on ties.

import (
	"slices"

	"repro/internal/langmodel"
)

// csr is a posting table in compressed-sparse-row form: row r's (database,
// df) pairs sit in db/df[start[r]:start[r+1]], databases ascending.
type csr struct {
	start []int32
	db    []int32
	df    []float64
}

func (p *csr) rows() int { return len(p.start) - 1 }

// newCSR returns an empty table with room for rows rows and postings
// postings; a row is written by appending its postings to db/df and then
// calling endRow.
func newCSR(rows, postings int) *csr {
	return &csr{
		start: make([]int32, 1, rows+1),
		db:    make([]int32, 0, postings),
		df:    make([]float64, 0, postings),
	}
}

// endRow closes the row whose postings were just appended to p.db/p.df.
func (p *csr) endRow() {
	p.start = append(p.start, int32(len(p.db)))
}

// Compiled is an immutable, flat compilation of one model set. It is safe
// for unsynchronized concurrent use; compile a new one (and swap pointers)
// when the underlying models change.
//
// The postings are one base table, shared by pointer between a snapshot and
// everything patched from it, plus a small delta table holding the rows a
// chain of patches has overridden since the base was written (patch.go).
// Term id t's row is delta row ovr[t] when that is >= 0, else base row t.
type Compiled struct {
	n int
	// dict is the term dictionary this snapshot shares with its patch
	// lineage (dict.go) and terms this snapshot's view of it: term id i is
	// terms[i], and a dictionary id at or past len(terms) belongs to a
	// later snapshot.
	dict  *termDict
	terms []string

	docs  []float64 // per-database document counts
	cw    []float64 // per-database collection sizes (total ctf)
	sumCW int64     // exact sum of cw, from which avgCW derives CORI's normalizer

	base      *csr    // rows by term id
	ovr       []int32 // term id -> delta row, -1 if not overridden; nil without a delta
	delta     *csr    // row 0 is empty (every ghost's row), then overridden rows by ascending term id
	deltaTerm []int32 // delta row -> term id (-1 for row 0)

	postings int // live (term, database) pairs across base and delta
	empty    int // interned terms whose row has lost its last posting
}

// Compile flattens models into a Compiled set. Model order is preserved:
// database i in every scoring call is models[i]. Terms are interned in
// first-encounter order (model order, then each model's insertion order),
// which is deterministic for deterministic inputs.
func Compile(models []*langmodel.Model) *Compiled {
	n := len(models)
	// Each model lists a term once, so the posting count is known before the
	// first term is read and every array below is allocated once at its final
	// size. Pass one interns the terms and counts each one's postings,
	// remembering the id of every posting in visit order.
	postings, largest := 0, 0
	for _, m := range models {
		postings += m.VocabSize()
		largest = max(largest, m.VocabSize())
	}
	dict := newTermDict(largest)
	c := &Compiled{
		n:    n,
		dict: dict,
		docs: make([]float64, n),
		cw:   make([]float64, n),
	}
	termOf := make([]int32, 0, postings)
	var count []int32
	for i, m := range models {
		c.docs[i] = float64(m.Docs())
		c.cw[i] = float64(m.TotalCTF())
		c.sumCW += m.TotalCTF()
		for j, v := 0, m.VocabSize(); j < v; j++ {
			id, fresh := dict.intern(m.TermAt(j))
			if fresh {
				count = append(count, 0)
			}
			count[id]++
			termOf = append(termOf, id)
		}
	}

	// The counts give every row its place.
	base := &csr{
		start: make([]int32, len(count)+1),
		db:    make([]int32, postings),
		df:    make([]float64, postings),
	}
	for id, cf := range count {
		base.start[id+1] = base.start[id] + cf
	}

	// Pass two walks the models in the same order and drops each posting at
	// its row's cursor (count, reused), so a row's databases stay ascending.
	next := count
	copy(next, base.start)
	p := 0
	for i, m := range models {
		db := int32(i)
		m.Range(func(_ string, st langmodel.TermStats) bool {
			id := termOf[p]
			p++
			at := next[id]
			next[id]++
			base.db[at] = db
			base.df[at] = float64(st.DF)
			return true
		})
	}
	c.base, c.postings = base, postings
	c.terms = dict.view()
	return c
}

// NumDBs returns the number of compiled databases.
func (c *Compiled) NumDBs() int { return c.n }

// VocabSize returns the number of interned terms. Between two folds of a
// patch chain (patch.go) this may include terms whose last posting was
// removed; they keep an empty posting row, which every scorer treats
// exactly like a term outside the dictionary, and the next fold drops them.
func (c *Compiled) VocabSize() int { return len(c.terms) }

// Postings returns the total number of (term, database) statistics pairs.
func (c *Compiled) Postings() int { return c.postings }

// TermAt returns the interned term with id i, 0 <= i < VocabSize().
func (c *Compiled) TermAt(i int) string { return c.terms[i] }

// ID resolves a term to its interned id; ok is false for terms no model
// contains. Ids are private to a snapshot: a Patch that folds renumbers
// them, so resolve a query against the snapshot it will be scored on.
func (c *Compiled) ID(term string) (int32, bool) {
	id := c.dict.lookup(term, len(c.terms))
	return id, id >= 0
}

// row returns term id's posting row: the delta's copy if a patch overrode
// the row, else the base's. Scorers call it once per query term, never per
// posting.
func (c *Compiled) row(id int32) (dbs []int32, dfs []float64) {
	p, r := c.base, id
	if c.ovr != nil {
		if d := c.ovr[id]; d >= 0 {
			p, r = c.delta, d
		}
	}
	lo, hi := p.start[r], p.start[r+1]
	return p.db[lo:hi], p.df[lo:hi]
}

// AppendIDs resolves terms to interned ids, appending one id per term to
// dst (unknown terms append -1 — they still count toward CORI's query
// length). The caller recycles dst; no allocations beyond dst growth.
func (c *Compiled) AppendIDs(dst []int32, terms []string) []int32 {
	for _, t := range terms {
		dst = append(dst, c.dict.lookup(t, len(c.terms)))
	}
	return dst
}

// ScoreInto scores the query (as interned ids from AppendIDs) into scores,
// which must have length NumDBs; previous contents are overwritten. It
// returns false when alg is not one of the compiled algorithm families
// (CORI, Gloss) — the caller should fall back to Algorithm.Scores.
func (c *Compiled) ScoreInto(alg Algorithm, ids []int32, scores []float64) bool {
	switch a := alg.(type) {
	case CORI:
		c.scoreCORI(a, ids, scores)
	case Gloss:
		c.scoreGloss(a, ids, scores)
	default:
		return false
	}
	return true
}

// scoreCORI mirrors CORI.Scores. Per query term the belief added to a
// database without the term is exactly B (the T component is zero), so
// only posting databases evaluate the full belief expression; every other
// database adds the constant. The term's cf is its row's length, so its I
// component is computed once per query term. Accumulation stays query-term
// major with one addition per (term, database), so the float64 stream per
// database is identical to the map-based loop's.
func (c *Compiled) scoreCORI(co CORI, ids []int32, scores []float64) {
	b, k0, k1 := co.B, co.K0, co.K1
	if b == 0 {
		b = 0.4
	}
	if k0 == 0 {
		k0 = 50
	}
	if k1 == 0 {
		k1 = 150
	}
	n := c.n
	for i := 0; i < n; i++ {
		scores[i] = 0
	}
	if n == 0 || len(ids) == 0 {
		return
	}
	avg := avgCW(c.sumCW, n)
	for _, id := range ids {
		if id < 0 {
			// Unknown term: cf = 0, idf = 0, belief = B everywhere.
			for i := 0; i < n; i++ {
				scores[i] += b
			}
			continue
		}
		dbs, dfs := c.row(id)
		idf := rowIDF(n, len(dbs))
		i := 0
		for pos, db := range dbs {
			for ; i < int(db); i++ {
				scores[i] += b
			}
			df := dfs[pos]
			tcomp := df / (df + k0 + k1*c.cw[db]/avg)
			scores[db] += b + (1-b)*tcomp*idf
			i = int(db) + 1
		}
		for ; i < n; i++ {
			scores[i] += b
		}
	}
	for i := 0; i < n; i++ {
		scores[i] /= float64(len(ids))
	}
}

// scoreGloss mirrors Gloss.Scores. For the Sum estimator, absent terms
// contribute +0 and are skipped outright (x + 0 is exact); the Ind
// estimator multiplies, so absent terms must still zero the estimate —
// that path walks densely per term, carrying the posting cursor.
func (c *Compiled) scoreGloss(g Gloss, ids []int32, scores []float64) {
	n := c.n
	for i := 0; i < n; i++ {
		scores[i] = 0
	}
	if g.Estimator == GlossInd {
		for i := 0; i < n; i++ {
			if c.docs[i] > 0 {
				scores[i] = c.docs[i]
			}
		}
		for _, id := range ids {
			var (
				dbs []int32
				dfs []float64
			)
			if id >= 0 {
				dbs, dfs = c.row(id)
			}
			pos := 0
			next := int32(-1)
			if pos < len(dbs) {
				next = dbs[pos]
			}
			for i := 0; i < n; i++ {
				df := 0.0
				if int32(i) == next {
					df = dfs[pos]
					pos++
					next = -1
					if pos < len(dbs) {
						next = dbs[pos]
					}
				}
				docs := c.docs[i]
				if docs == 0 {
					continue // map path skips empty databases entirely
				}
				frac := df / docs
				if frac < g.Threshold {
					frac = 0
				}
				scores[i] *= frac
			}
		}
		return
	}
	// Sum estimator: sparse — only posting databases receive a nonzero
	// addend, and adding 0.0 to a non-negative partial sum is exact, so
	// skipping absent (term, database) pairs preserves bit equality.
	for _, id := range ids {
		if id < 0 {
			continue
		}
		dbs, dfs := c.row(id)
		for pos, i := range dbs {
			docs := c.docs[i]
			if docs == 0 {
				continue
			}
			frac := dfs[pos] / docs
			if frac < g.Threshold {
				frac = 0
			}
			scores[i] += frac
		}
	}
}

// RankInto is the full ranking: RankTopInto with no cutoff.
func (c *Compiled) RankInto(alg Algorithm, ids []int32, scores []float64, out []Ranked) ([]Ranked, bool) {
	return c.RankTopInto(alg, ids, scores, out, 0)
}

// RankTopInto scores and selects the best k databases in one call without
// allocating: ids, scores and out are caller-recycled buffers (scores must
// have length NumDBs; out is overwritten from its start and grows only when
// its capacity is below the rows selectTop needs). k <= 0 or k >= NumDBs is
// the full ranking. The result is the first k rows of Rank over the same
// models: best first, ties by database index. ok reports whether alg is a
// compiled algorithm family.
func (c *Compiled) RankTopInto(alg Algorithm, ids []int32, scores []float64, out []Ranked, k int) ([]Ranked, bool) {
	if !c.ScoreInto(alg, ids, scores) {
		return out, false
	}
	return selectTop(out, scores[:c.n], k), true
}

// fullSortShare is where selectTop stops using its heap: from k = n/4 up it
// keeps all n rows, sorts them and cuts. Measured at 512 and 10 000
// databases the heap costs what the sort costs somewhere between k = n/2
// (tie-heavy scores, which pdqsort likes) and k = n (distinct scores), so
// n/4 keeps every k on its cheaper side with a margin.
const fullSortShare = 4

// selectTop writes into out the k best of scores under the ranking's total
// order — score descending, database index ascending — best first.
//
// The order is total, so the top k is one set in one sequence however it is
// found. A small k is found in one pass over the scores with a k-sized heap
// in out whose root is the worst row kept; a large one (fullSortShare) is
// the same function keeping every row. Databases are visited in ascending
// index, so a candidate that ties the root has the larger index and ranks
// after it: the reject test is a single >, and a federation of equal scores
// answers databases 0..k-1 without ever touching the heap. Cost: O(n) to
// scan, O(log k) per row that displaces one, O(k log k) to order the rows
// kept; O(n log k) if the scores happen to ascend with the index.
func selectTop(out []Ranked, scores []float64, k int) []Ranked {
	n := len(scores)
	if k <= 0 || k > n {
		k = n
	}
	keep := k
	if k*fullSortShare >= n {
		keep = n // no heap: every row is kept, sorted, and the cut comes last
	}
	out = out[:0]
	for i, s := range scores[:keep] {
		out = append(out, Ranked{DB: i, Score: s})
	}
	if keep < n {
		for i := keep/2 - 1; i >= 0; i-- {
			siftWorst(out, i)
		}
		for i := keep; i < n; i++ {
			if s := scores[i]; s > out[0].Score {
				out[0] = Ranked{DB: i, Score: s}
				siftWorst(out, 0)
			}
		}
	}
	slices.SortFunc(out, compareRanked)
	return out[:k]
}

// compareRanked is the ranking's total order (ties broken by DB), so the
// unstable pdqsort yields exactly the order sort.SliceStable yields in Rank.
func compareRanked(a, b Ranked) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	case a.DB < b.DB:
		return -1
	case a.DB > b.DB:
		return 1
	}
	return 0
}

// siftWorst restores the heap property below h[i]: every parent ranks after
// (is worse than) both its children, so h[0] is the worst row kept.
func siftWorst(h []Ranked, i int) {
	row := h[i]
	for {
		child := 2*i + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && compareRanked(h[r], h[child]) > 0 {
			child = r
		}
		if compareRanked(h[child], row) <= 0 {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = row
}

// Rank is the convenience form of RankInto for callers that do not manage
// buffers (tests, one-shot tools): it resolves the query terms and returns
// a fresh ranking, falling back to the map-based Rank for non-compiled
// algorithms — for which it needs the original models, so it panics if alg
// is not a compiled family. Serving paths use RankInto with pooled buffers.
func (c *Compiled) Rank(alg Algorithm, query []string) []Ranked {
	ids := c.AppendIDs(make([]int32, 0, len(query)), query)
	scores := make([]float64, c.n)
	out, ok := c.RankInto(alg, ids, scores, make([]Ranked, 0, c.n))
	if !ok {
		panic("selection: " + alg.Name() + " is not a compiled algorithm family")
	}
	return out
}
