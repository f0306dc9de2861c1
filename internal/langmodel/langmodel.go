// Package langmodel implements the language models at the heart of the
// paper: for each index term, the number of documents containing it
// (document frequency, df) and its total number of occurrences (collection
// term frequency, ctf), plus the corpus-level counts database selection
// algorithms need (§2.1, §4.1).
//
// The same type serves as the *actual* language model (built from a full
// database index) and the *learned* language model (built incrementally
// from sampled documents).
//
// A Model is either *live* (mutable, built by AddDocument/AddTerm)
// or *frozen* (an immutable snapshot taken with Snapshot). Snapshots are
// copy-on-write: internally a model may be a small overlay of recent
// changes on top of a chain of frozen base layers, so taking a snapshot
// costs O(changes since the last snapshot), not O(vocabulary). All
// accessors resolve through the chain transparently; mutating a frozen
// model panics.
package langmodel

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/analysis"
)

// TermStats carries the per-term frequency information of a language model.
type TermStats struct {
	// DF is document frequency: the number of documents containing the term.
	DF int
	// CTF is collection term frequency: total occurrences of the term.
	CTF int64
}

// AvgTF is ctf/df, the average within-document frequency (§5.2, §7).
func (t TermStats) AvgTF() float64 {
	if t.DF == 0 {
		return 0
	}
	return float64(t.CTF) / float64(t.DF)
}

// maxSnapshotDepth bounds the copy-on-write layer chain: a snapshot whose
// chain would exceed this depth is materialized flat instead, so term
// lookups stay O(maxSnapshotDepth) in the worst case while snapshots
// remain O(delta) in the common case.
const maxSnapshotDepth = 8

// Model is a language model: a vocabulary with frequency statistics. The
// zero value is not usable; call New.
type Model struct {
	// terms holds the stats written since the last snapshot cut. For a
	// flat model (base == nil) it holds the whole vocabulary; otherwise a
	// term missing here resolves through the base chain.
	terms map[string]TermStats
	// base is the frozen layer beneath this model's overlay (nil for flat
	// models). Base layers are immutable and may be shared by several
	// snapshots and the live model.
	base *Model
	// depth is the number of base layers beneath this one.
	depth int
	// frozen marks an immutable snapshot; mutating it panics.
	frozen   bool
	order    []string // terms in first-seen order; see TermAt
	docs     int
	totalCTF int64

	// slots, distinct and tf are AddDocument's working memory: the index of
	// each of one document's terms into the other two, the terms in
	// first-seen order, and their counts in the document. They are kept
	// between documents so that folding one in allocates for the vocabulary
	// it adds and not for the document, and emptied before AddDocument
	// returns, so that none holds on to a token (tokens alias the
	// document's text). Snapshots and clones do not take them along.
	slots    map[string]int32
	distinct []string
	tf       []int64

	// version counts mutations, invalidating the normalize cache.
	version uint64
	// Normalize memoization (see normalize.go). Guarded by normMu so
	// read-only sharing of a model across goroutines stays race-free.
	normMu      sync.Mutex
	normVal     *Model
	normAn      analysis.Analyzer
	normVersion uint64
	normValid   bool
}

// New returns an empty language model.
func New() *Model {
	return &Model{terms: make(map[string]TermStats)}
}

// lookup resolves a term's stats through the copy-on-write chain.
func (m *Model) lookup(term string) (TermStats, bool) {
	for n := m; n != nil; n = n.base {
		if st, ok := n.terms[term]; ok {
			return st, true
		}
	}
	return TermStats{}, false
}

// AddDocument folds one document's tokens into the model: df increases by
// one for each distinct term, ctf by each occurrence. This is the update
// step 4 of the sampling algorithm (§3). A token costs one hash in a
// scratch index of the document's distinct terms; a distinct term costs
// one lookup and one store in the model. Insertion order (and with it
// every downstream random draw) stays deterministic because new terms are
// appended in the order the document first shows them. The model keeps no
// token: the document's new terms are copied into one string, and each is
// a slice of it, so callers may recycle the slice and let go of the text
// behind it.
func (m *Model) AddDocument(tokens []string) {
	m.mutable()
	if m.slots == nil {
		m.slots = make(map[string]int32, len(tokens))
	}
	for _, t := range tokens {
		i, ok := m.slots[t]
		if !ok {
			i = int32(len(m.distinct))
			m.slots[t] = i
			m.distinct = append(m.distinct, t)
			m.tf = append(m.tf, 0)
		}
		m.tf[i]++
	}
	// A known term is stored as soon as it is looked up. A new one is
	// marked by negating its count and waits for the copy it will share.
	newBytes, fresh := 0, false
	for i, t := range m.distinct {
		st, ok := m.lookup(t)
		if !ok {
			m.tf[i] = -m.tf[i]
			newBytes += len(t)
			fresh = true
			continue
		}
		st.DF++
		st.CTF += m.tf[i]
		m.terms[t] = st
	}
	if fresh {
		// Grow makes the copy one allocation; every slice taken of it stays
		// valid whatever the builder does next, as written bytes never change.
		var b strings.Builder
		b.Grow(newBytes)
		for i, t := range m.distinct {
			if m.tf[i] > 0 {
				continue
			}
			b.WriteString(t)
			t = b.String()[b.Len()-len(t):]
			m.order = append(m.order, t)
			m.terms[t] = TermStats{DF: 1, CTF: -m.tf[i]}
		}
	}
	clear(m.slots)
	clear(m.distinct)
	m.distinct = m.distinct[:0]
	m.tf = m.tf[:0]
	m.totalCTF += int64(len(tokens))
	m.docs++
	m.version++
}

// mutable panics when the model is a frozen snapshot.
func (m *Model) mutable() {
	if m.frozen {
		panic("langmodel: mutating a frozen snapshot")
	}
}

// add merges (df, ctf) deltas for one term, tracking first-seen order.
// clone says the term may be a view of text the model does not own — a
// token aliasing its document — so a new one is copied and the model never
// pins that text. Without it the term must be, or be a slice of, a string
// some model's vocabulary already owns: model strings are never views of a
// document, so a model derived from another shares them.
func (m *Model) add(term string, df int, ctf int64, clone bool) {
	st, ok := m.lookup(term)
	if !ok {
		if clone {
			term = strings.Clone(term)
		}
		m.order = append(m.order, term)
	}
	st.DF += df
	st.CTF += ctf
	m.terms[term] = st
}

// bump is add for one term from outside the package, cloned when new.
func (m *Model) bump(term string, df int, ctf int64) {
	m.mutable()
	m.add(term, df, ctf, true)
	m.version++
}

// AddTerm merges raw statistics for one term without counting a document.
// Used when ingesting cooperative (STARTS) exports.
func (m *Model) AddTerm(term string, st TermStats) {
	m.bump(term, st.DF, st.CTF)
	m.totalCTF += st.CTF
}

// SetDocs records the number of documents the model describes (used when a
// model is ingested from a cooperative export rather than built from text).
func (m *Model) SetDocs(n int) {
	m.mutable()
	m.docs = n
	m.version++
}

// Docs returns the number of documents folded into the model.
func (m *Model) Docs() int { return m.docs }

// TotalCTF returns the total number of term occurrences in the model.
func (m *Model) TotalCTF() int64 { return m.totalCTF }

// VocabSize returns the number of distinct terms.
func (m *Model) VocabSize() int { return len(m.order) }

// Stats returns the frequency statistics for a term, with ok reporting
// whether the term is in the vocabulary.
func (m *Model) Stats(term string) (TermStats, bool) {
	return m.lookup(term)
}

// DF returns the document frequency of term (0 if absent).
func (m *Model) DF(term string) int {
	st, _ := m.lookup(term)
	return st.DF
}

// CTF returns the collection term frequency of term (0 if absent).
func (m *Model) CTF(term string) int64 {
	st, _ := m.lookup(term)
	return st.CTF
}

// Contains reports whether the term is in the vocabulary.
func (m *Model) Contains(term string) bool {
	_, ok := m.lookup(term)
	return ok
}

// TermAt returns the i-th term in first-seen order, 0 <= i < VocabSize().
// It gives selectors O(1) uniform random access to the vocabulary without
// sorting it on every draw.
func (m *Model) TermAt(i int) string { return m.order[i] }

// Vocabulary returns the terms in sorted order (deterministic for tests and
// reports).
func (m *Model) Vocabulary() []string {
	out := append([]string(nil), m.order...)
	sort.Strings(out)
	return out
}

// Range calls fn for every term in first-seen order until fn returns
// false.
func (m *Model) Range(fn func(term string, st TermStats) bool) {
	for _, t := range m.order {
		st, _ := m.lookup(t)
		if !fn(t, st) {
			return
		}
	}
}

// Snapshot returns an immutable view of the model's current state. Unlike
// Clone it does not copy the vocabulary: the live model's overlay map is
// frozen in place as a new base layer and the live model continues with a
// fresh, empty overlay, so the cost is O(terms changed since the last
// snapshot). The sampler takes one of these every SnapshotEvery documents
// (§4.4's 50-document metric grid), which used to deep-copy the entire
// vocabulary each time.
func (m *Model) Snapshot() *Model {
	if m.frozen {
		return m // already immutable
	}
	fr := &Model{
		terms:    m.terms,
		base:     m.base,
		depth:    m.depth,
		frozen:   true,
		order:    m.order[:len(m.order):len(m.order)],
		docs:     m.docs,
		totalCTF: m.totalCTF,
	}
	if fr.depth >= maxSnapshotDepth {
		fr = fr.flatten()
		fr.frozen = true
	}
	m.base = fr
	m.depth = fr.depth + 1
	m.terms = make(map[string]TermStats)
	return fr
}

// flatten materializes the chain into a single flat layer. The result is
// live (not frozen) unless the caller marks it otherwise.
func (m *Model) flatten() *Model {
	c := &Model{
		terms:    make(map[string]TermStats, len(m.order)),
		order:    append([]string(nil), m.order...),
		docs:     m.docs,
		totalCTF: m.totalCTF,
	}
	for _, t := range c.order {
		st, _ := m.lookup(t)
		c.terms[t] = st
	}
	return c
}

// Clone returns a deep, flat, mutable copy.
func (m *Model) Clone() *Model {
	return m.flatten()
}

// String summarizes the model for logs.
func (m *Model) String() string {
	return fmt.Sprintf("langmodel(%d terms, %d docs, %d occurrences)",
		len(m.order), m.docs, m.totalCTF)
}
