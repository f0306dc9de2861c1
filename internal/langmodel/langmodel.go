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
// or *frozen* (an immutable snapshot taken with Snapshot). Both have one
// storage form, which holds each term once: the terms in first-seen order,
// their statistics in a parallel slice, and an int32 hash index from term
// to position. A snapshot copies the statistics and the index and shares
// the order slice's prefix, which the live model never writes into;
// mutating a frozen model panics.
package langmodel

import (
	"fmt"
	"hash/maphash"
	"slices"
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

// Model is a language model: a vocabulary with frequency statistics. The
// zero value is not usable; call New.
type Model struct {
	// order holds the terms in first-seen order (see TermAt) and stats
	// their statistics, position for position. index finds a term's
	// position: an open-addressing table over maphash with a power-of-two
	// size, at most 3/4 full, whose slots hold position+1 (0 is empty).
	order []string
	stats []TermStats
	index []int32
	// frozen marks an immutable snapshot; mutating it panics.
	frozen   bool
	docs     int
	totalCTF int64

	// stamp is AddDocument's working memory: stamp[p] is the number of the
	// last document that counted position p's df, and doc the number of the
	// document being folded, so a term's df rises once per document however
	// often the document repeats it. It holds counts, never a token, and
	// snapshots and clones do not take it along.
	stamp []uint32
	doc   uint32

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

// hashSeed keys the term index. Positions, not slots, are what a model
// exposes, so a per-process seed changes no output.
var hashSeed = maphash.MakeSeed()

// New returns an empty language model.
func New() *Model {
	return &Model{}
}

// indexSize is the smallest power-of-two table, at least 8 slots, that
// holds n terms at a load of at most 3/4.
func indexSize(n int) int {
	size := 8
	for 3*size < 4*n {
		size *= 2
	}
	return size
}

// reindex rebuilds the term index at the given power-of-two size.
func (m *Model) reindex(size int) {
	m.index = make([]int32, size)
	mask := size - 1
	for i, t := range m.order {
		s := int(maphash.String(hashSeed, t)) & mask
		for m.index[s] != 0 {
			s = (s + 1) & mask
		}
		m.index[s] = int32(i + 1)
	}
}

// probe returns the term's position and index slot, or -1 and the empty
// slot it would take.
func (m *Model) probe(term string) (pos, slot int) {
	if len(m.index) == 0 {
		return -1, -1
	}
	mask := len(m.index) - 1
	for s := int(maphash.String(hashSeed, term)) & mask; ; s = (s + 1) & mask {
		if p := m.index[s]; p == 0 || m.order[p-1] == term {
			return int(p) - 1, s
		}
	}
}

// lookup returns the term's stats.
func (m *Model) lookup(term string) (TermStats, bool) {
	if p, _ := m.probe(term); p >= 0 {
		return m.stats[p], true
	}
	return TermStats{}, false
}

// intern returns the term's position, appending it with zero stats when
// it is new: one probe either way. A new term is stored as given, so a
// caller that must not keep it replaces order[pos] with an equal string.
func (m *Model) intern(term string) (pos int, fresh bool) {
	if 4*(len(m.order)+1) > 3*len(m.index) {
		m.reindex(indexSize(len(m.order) + 1))
	}
	p, s := m.probe(term)
	if p >= 0 {
		return p, false
	}
	m.index[s] = int32(len(m.order) + 1)
	m.order = append(m.order, term)
	m.stats = append(m.stats, TermStats{})
	return len(m.order) - 1, true
}

// AddDocument folds one document's tokens into the model: df increases by
// one for each term the document holds, ctf by each occurrence. This is the
// update step 4 of the sampling algorithm (§3). A token costs one probe of
// the model's index, which finds its term or appends it, and a check of
// the term's stamp, which says whether this document has counted it yet.
// Insertion order (and with it every downstream random draw) stays
// deterministic because new terms are appended in the order the document
// first shows them. The model keeps no token: the document's new terms are
// copied into one string, and each is a slice of it, so callers may
// recycle the slice and let go of the text behind it.
func (m *Model) AddDocument(tokens []string) {
	m.mutable()
	if m.doc++; m.doc == 0 {
		clear(m.stamp) // the numbering wrapped: forget every document
		m.doc = 1
	}
	if len(m.stamp) < len(m.order) {
		// Terms added by AddTerm or a load have no stamp yet.
		m.stamp = append(m.stamp, make([]uint32, len(m.order)-len(m.stamp))...)
	}
	// New terms are appended as the tokens themselves, then swapped for
	// slices of one copy of their bytes.
	first, newBytes := len(m.order), 0
	for _, t := range tokens {
		p, fresh := m.intern(t)
		if fresh {
			newBytes += len(t)
			m.stamp = append(m.stamp, 0)
		}
		if m.stamp[p] != m.doc {
			m.stamp[p] = m.doc
			m.stats[p].DF++
		}
		m.stats[p].CTF++
	}
	if first < len(m.order) {
		// Grow makes the copy one allocation; every slice taken of it stays
		// valid whatever the builder does next, as written bytes never change.
		var b strings.Builder
		b.Grow(newBytes)
		for p := first; p < len(m.order); p++ {
			b.WriteString(m.order[p])
			m.order[p] = b.String()[b.Len()-len(m.order[p]):]
		}
	}
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
	p, fresh := m.intern(term)
	if fresh && clone {
		m.order[p] = strings.Clone(term)
	}
	m.stats[p].DF += df
	m.stats[p].CTF += ctf
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
	for i, t := range m.order {
		if !fn(t, m.stats[i]) {
			return
		}
	}
}

// Snapshot returns an immutable view of the model's current state: a copy
// of the stats and the index, and the first-seen order shared as a prefix
// the live model never writes into. The sampler takes one of these
// every SnapshotEvery documents (§4.4's 50-document metric grid).
func (m *Model) Snapshot() *Model {
	if m.frozen {
		return m // already immutable
	}
	n := len(m.order)
	return &Model{
		order:    m.order[:n:n],
		stats:    slices.Clone(m.stats),
		index:    slices.Clone(m.index),
		frozen:   true,
		docs:     m.docs,
		totalCTF: m.totalCTF,
	}
}

// Clone returns a deep, mutable copy.
func (m *Model) Clone() *Model {
	return &Model{
		order:    slices.Clone(m.order),
		stats:    slices.Clone(m.stats),
		index:    slices.Clone(m.index),
		docs:     m.docs,
		totalCTF: m.totalCTF,
	}
}

// String summarizes the model for logs.
func (m *Model) String() string {
	return fmt.Sprintf("langmodel(%d terms, %d docs, %d occurrences)",
		len(m.order), m.docs, m.totalCTF)
}
