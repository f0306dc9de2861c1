package selection

// Incremental recompilation of Compiled snapshots.
//
// A resample changes one database's model while the other N-1 stay put,
// yet Compile re-interns every term of every model — O(federation) map
// hashing for an O(1/N) change. Patch instead writes only the posting rows
// the changed databases touch, into a small delta table laid over the base
// table it shares by pointer with the snapshot it patches: each touched
// row (read from the base, or from the previous delta if an earlier patch
// already overrode it) is merged with its edits; the previous delta's
// other rows are carried forward in bulk-copied runs; and the term id ->
// delta row index is the only array of vocabulary size that is written. A
// single-database patch of a large federation therefore costs what the
// changed models and the accumulated delta cost, not what the federation
// costs.
//
// The delta cannot grow for ever, and Patch decides by itself, from sizes
// it can see, when to fold base and delta into a fresh base: when the
// delta's postings would pass 1/foldDeltaRatio of the base's, or when
// interned terms whose row has gone empty would outnumber the live ones.
// Since every row length is known before anything is written, a patch that
// is going to fold writes the new base directly, through the same row
// merge, instead of building a delta first. The fold is the only path that
// copies the whole table.
//
// Equivalence contract (the same one Compile carries against the map
// scorers): a patched snapshot produces bit-for-bit the float64 scores of
// a from-scratch Compile over the new model list, for every compiled
// algorithm family. Posting rows are keyed by database index in ascending
// order, and a patch preserves both the membership and the order a fresh
// compile would produce, so each scorer sees the identical addend stream.
// CORI's cf and avg_cw are derived from the rows and the exact integer
// sum of the cw column when a query is scored, so they need no patching
// beyond adjusting that sum by each replaced database's difference.
//
// What differs from a fresh compile is representation only, and none of it
// is observable through scoring. Term ids differ: terms first introduced
// by a patch get ids at the end of the dictionary instead of
// first-encounter positions, and ids are stable only between folds — a
// fold that drops terms renumbers the rest, which is safe because ids are
// private to a snapshot (a query is resolved against the snapshot it is
// scored on, and Patch finds rows through ID(term)). And a term whose last
// posting disappeared stays interned with an empty row until the next fold
// drops it; every scorer already treats such a ghost exactly like an
// out-of-dictionary term (CORI adds the default belief everywhere,
// GlOSS-Sum adds nothing, GlOSS-Ind zeroes through df=0), and the ghost
// rule above bounds them to at most the number of live terms.

import (
	"fmt"
	"slices"

	"repro/internal/langmodel"
)

// ModelPatch replaces the model compiled at index DB. Old must be the
// model the receiver snapshot was compiled (or previously patched) from at
// that index — it tells the patcher which posting rows to visit without
// scanning the whole table — and New is its replacement.
type ModelPatch struct {
	DB  int
	Old *langmodel.Model
	New *langmodel.Model
}

// rowEdit is one (term, database) posting edit.
type rowEdit struct {
	id int32
	db int32
	df float64 // meaningful unless remove
	// remove deletes the db's posting; otherwise the posting is set
	// (replacing an existing entry or inserting a new one — add tells
	// which, so row lengths are known without searching the row).
	add    bool
	remove bool
}

// foldDeltaRatio: when the delta's postings outgrow this fraction of the
// base's, every patch is carrying too much of the table forward and the
// next one folds base and delta into a fresh base.
const foldDeltaRatio = 8

// Patch returns a new Compiled reflecting the model replacements in
// patches, leaving the receiver untouched (snapshots are immutable and may
// still be serving queries; the two share the base table and the lineage's
// dictionary, which a patch of the lineage's tip appends to, dict.go).
// The database count and order must be unchanged — registrations and
// unregistrations renumber databases and need a full Compile. Patches must
// target distinct indices.
func (c *Compiled) Patch(patches []ModelPatch) (*Compiled, error) {
	patches = slices.Clone(patches)
	slices.SortFunc(patches, func(a, b ModelPatch) int { return a.DB - b.DB })
	for i, p := range patches {
		if p.DB < 0 || p.DB >= c.n {
			return nil, fmt.Errorf("selection: patch index %d out of range [0,%d)", p.DB, c.n)
		}
		if p.Old == nil || p.New == nil {
			return nil, fmt.Errorf("selection: patch for db %d has a nil model", p.DB)
		}
		if i > 0 && patches[i-1].DB == p.DB {
			return nil, fmt.Errorf("selection: duplicate patch for db %d", p.DB)
		}
	}

	// Collect posting edits by term id. Terms new to the snapshot take
	// provisional ids past the dictionary in deterministic first-encounter
	// order (database order, then each New model's insertion order —
	// mirroring Compile's interning discipline).
	var (
		newTerms []string
		newIDs   map[string]int32
		patchErr error
	)
	room := 0
	for _, p := range patches {
		room += p.Old.VocabSize() + p.New.VocabSize()
	}
	edits := make([]rowEdit, 0, room)
	oldVocab := c.VocabSize()
	for _, p := range patches {
		db := int32(p.DB)
		p.New.Range(func(t string, st langmodel.TermStats) bool {
			id, known := c.ID(t)
			inOld := false
			if known {
				_, inOld = p.Old.Stats(t)
			} else if id, known = newIDs[t]; !known {
				if newIDs == nil {
					newIDs = make(map[string]int32)
				}
				id = int32(oldVocab + len(newTerms))
				newIDs[t] = id
				newTerms = append(newTerms, t)
			}
			edits = append(edits, rowEdit{id: id, db: db, df: float64(st.DF), add: !inOld})
			return true
		})
		p.Old.Range(func(t string, _ langmodel.TermStats) bool {
			if p.New.Contains(t) {
				return true // replaced above
			}
			id, ok := c.ID(t)
			if !ok {
				// Old was not the compiled model; the table has no posting to
				// remove and the patch would silently diverge.
				patchErr = fmt.Errorf("selection: patch old model for db %d has term %q unknown to the snapshot", p.DB, t)
				return false
			}
			edits = append(edits, rowEdit{id: id, db: db, remove: true})
			return true
		})
		if patchErr != nil {
			return nil, patchErr
		}
	}
	edits = sortEdits(edits, oldVocab+len(newTerms))

	next := c.rewrite(edits, newTerms)

	next.docs, next.cw = slices.Clone(c.docs), slices.Clone(c.cw)
	for _, p := range patches {
		next.sumCW += p.New.TotalCTF() - int64(c.cw[p.DB])
		next.docs[p.DB] = float64(p.New.Docs())
		next.cw[p.DB] = float64(p.New.TotalCTF())
	}
	return next, nil
}

// editDigitBits is the width of one radix digit of sortEdits: 2 048
// counters, so two passes order a vocabulary of up to 4 M terms.
const editDigitBits = 11

// sortEdits returns edits, emitted patch by patch in database order, in
// (id, db) order, in time linear in their number and the digits of vocab,
// the bound on their ids: a stable radix sort by id, least significant
// digit first, keeps the database order among the edits of one id. No two
// edits tie: a patch edits each id at most once, and patches target
// distinct databases.
func sortEdits(edits []rowEdit, vocab int) []rowEdit {
	tmp := make([]rowEdit, len(edits))
	const mask = 1<<editDigitBits - 1
	var count [1 << editDigitBits]int
	for shift := 0; shift == 0 || (vocab-1)>>shift > 0; shift += editDigitBits {
		clear(count[:])
		for _, e := range edits {
			count[int(e.id)>>shift&mask]++
		}
		sum := 0
		for d, n := range count {
			count[d] = sum
			sum += n
		}
		for _, e := range edits {
			d := int(e.id) >> shift & mask
			tmp[count[d]] = e
			count[d]++
		}
		edits, tmp = tmp, edits
	}
	return edits
}

// rewrite returns c with edits (sorted by term id, then database) applied
// to its posting rows and newTerms (ids VocabSize()...) interned, sharing
// c's per-database columns. It writes either a new delta over c's base or,
// when the fold rule says so, a new base.
func (c *Compiled) rewrite(edits []rowEdit, newTerms []string) *Compiled {
	oldVocab := c.VocabSize()
	vocab := oldVocab + len(newTerms)

	// Size the result: every row length after the patch follows from the
	// old length and the edit kinds.
	postings, empty := c.postings, c.empty
	deltaRows, deltaPostings := 1, 0 // row 0 is the empty row ghosts share
	if c.delta != nil {
		deltaRows, deltaPostings = c.delta.rows(), len(c.delta.db)
	}
	oldRow := func(id int32) ([]int32, []float64) {
		if int(id) < oldVocab {
			return c.row(id)
		}
		return nil, nil // a term this patch interns
	}
	for lo, hi := 0, 0; lo < len(edits); lo = hi {
		id := edits[lo].id
		hi = rowEnd(edits, lo)
		dbs, _ := oldRow(id)
		oldLen, newLen := len(dbs), len(dbs)
		for _, e := range edits[lo:hi] {
			switch {
			case e.remove:
				newLen--
			case e.add:
				newLen++
			}
		}
		postings += newLen - oldLen
		if int(id) < oldVocab && c.ovr != nil && c.ovr[id] > 0 {
			deltaRows--
			deltaPostings -= oldLen
		}
		if newLen > 0 {
			deltaRows++
			deltaPostings += newLen
		}
		switch {
		case oldLen > 0 && newLen == 0:
			empty++
		case oldLen == 0 && newLen > 0 && int(id) < oldVocab:
			empty--
		}
	}
	fold := deltaPostings*foldDeltaRatio > len(c.base.db) || empty > vocab-empty

	next := &Compiled{
		n: c.n, docs: c.docs, cw: c.cw, sumCW: c.sumCW,
		dict: c.dict, terms: c.terms,
		postings: postings, empty: empty,
	}
	if !fold {
		// New delta: the old delta's rows and the edited rows, merged by term
		// id. Old rows between two edited ones move as one run. Row 0 is
		// empty and stands in for every ghost, so a term with no postings
		// costs its ovr entry and nothing else.
		d := newCSR(deltaRows, deltaPostings)
		d.endRow()
		dterm := append(make([]int32, 0, deltaRows), -1)
		next.ovr = make([]int32, vocab)
		for i := copy(next.ovr, c.ovr); i < vocab; i++ {
			next.ovr[i] = -1
		}
		old := c.deltaTerm
		r := min(1, len(old))
		for lo, hi := 0, 0; lo < len(edits); lo = hi {
			id := edits[lo].id
			hi = rowEnd(edits, lo)
			from := r
			for r < len(old) && old[r] < id {
				r++
			}
			d.appendRun(c.delta, from, r)
			dterm = append(dterm, old[from:r]...)
			if r < len(old) && old[r] == id {
				r++ // superseded by the merged row
			}
			dbs, dfs := oldRow(id)
			if d.merge(dbs, dfs, edits[lo:hi]) > 0 {
				d.endRow()
				dterm = append(dterm, id)
			} else {
				next.ovr[id] = 0
			}
		}
		d.appendRun(c.delta, r, len(old))
		dterm = append(dterm, old[r:]...)
		for r := 1; r < len(dterm); r++ {
			next.ovr[dterm[r]] = int32(r)
		}
		next.base, next.delta, next.deltaTerm = c.base, d, dterm
	} else {
		// Fold: every row, in id order, into a fresh base. Rows that end up
		// empty are dropped with their terms, which renumbers the ids after
		// them; with none to drop, ids and dictionary stay as they are.
		renumber := empty > 0
		b := newCSR(vocab-empty, postings)
		var kept *termDict
		if renumber {
			kept = newTermDict(vocab - empty)
			next.empty = 0
		}
		lo := 0
		for id := 0; id < vocab; id++ {
			dbs, dfs := oldRow(int32(id))
			cf := len(dbs)
			if lo < len(edits) && int(edits[lo].id) == id {
				hi := rowEnd(edits, lo)
				cf = b.merge(dbs, dfs, edits[lo:hi])
				lo = hi
			} else {
				b.db = append(b.db, dbs...)
				b.df = append(b.df, dfs...)
			}
			if renumber {
				if cf == 0 {
					continue
				}
				if id < oldVocab {
					kept.intern(c.TermAt(id))
				} else {
					kept.intern(newTerms[id-oldVocab])
				}
			}
			b.endRow()
		}
		next.base = b
		if renumber {
			next.dict, next.terms = kept, kept.view()
			return next
		}
	}

	// Dictionary: new terms take the ids after c's, appended to the
	// lineage's dictionary when c is its tip and in a fork of it otherwise,
	// so no snapshot ever sees a term it was not built with.
	next.dict, next.terms = c.dict.extend(c.terms, newTerms)
	return next
}

// rowEnd returns the end of the run of edits, starting at lo, that target
// the same term as edits[lo].
func rowEnd(edits []rowEdit, lo int) int {
	hi := lo + 1
	for hi < len(edits) && edits[hi].id == edits[lo].id {
		hi++
	}
	return hi
}

// appendRun bulk-copies rows [from, to) of src onto the end of p.
func (p *csr) appendRun(src *csr, from, to int) {
	if from >= to {
		return
	}
	lo, hi := src.start[from], src.start[to]
	shift := int32(len(p.db)) - lo
	p.db = append(p.db, src.db[lo:hi]...)
	p.df = append(p.df, src.df[lo:hi]...)
	for _, s := range src.start[from+1 : to+1] {
		p.start = append(p.start, s+shift)
	}
}

// merge appends the sorted row (dbs, dfs) merged with its (sorted,
// distinct-db) edits to p's postings, ascending by database, and returns
// the number of postings the merged row has.
func (p *csr) merge(dbs []int32, dfs []float64, chs []rowEdit) int {
	from := len(p.db)
	pos, j := 0, 0
	for pos < len(dbs) || j < len(chs) {
		if j == len(chs) || (pos < len(dbs) && dbs[pos] < chs[j].db) {
			p.db = append(p.db, dbs[pos])
			p.df = append(p.df, dfs[pos])
			pos++
			continue
		}
		// An edit: set (replacing the row's entry for that db if it has
		// one) or remove. A remove of a db the row does not contain is a
		// no-op — only reachable if Old was not the compiled model; the
		// merge stays structurally sound.
		if !chs[j].remove {
			p.db = append(p.db, chs[j].db)
			p.df = append(p.df, chs[j].df)
		}
		if pos < len(dbs) && dbs[pos] == chs[j].db {
			pos++
		}
		j++
	}
	return len(p.db) - from
}
