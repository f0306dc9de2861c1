package langmodel

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// Binary model format. A selection service indexes thousands of databases
// (§1: "scale efficiently to millions of databases"), so stored models
// should be compact and fast to load. The layout is:
//
//	magic   "QBLM1"
//	uvarint docs
//	uvarint number of terms
//	per term, in sorted term order:
//	  uvarint len(term), term bytes, uvarint df, uvarint ctf
//
// Terms are sorted and the whole file is deterministic for a given model;
// ReadBinary refuses a file whose terms are not strictly ascending, so the
// first-seen order a file loads with is the one its re-save writes.
// It is the one file format for a model: the store, qbsample -out and
// lmtool all use it.

var binaryMagic = []byte("QBLM1")

// maxBinaryTerms bounds decoding allocations against corrupt headers.
const maxBinaryTerms = 1 << 28

// maxBinaryPresize caps what ReadBinary allocates on the header's word alone:
// room for this many terms (a few hundred KB), whatever count a forged or
// corrupt header claims.
const maxBinaryPresize = 1 << 12

// WriteBinary serializes the model in the compact binary format.
func (m *Model) WriteBinary(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.Write(binaryMagic); err != nil {
		return cw.n, fmt.Errorf("langmodel: write magic: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(uint64(m.docs)); err != nil {
		return cw.n, err
	}
	if err := writeUvarint(uint64(m.VocabSize())); err != nil {
		return cw.n, err
	}
	// Sort positions, not terms, so each term's stats are at hand without
	// a probe of the index.
	pos := make([]int32, len(m.order))
	for i := range pos {
		pos[i] = int32(i)
	}
	slices.SortFunc(pos, func(a, b int32) int { return strings.Compare(m.order[a], m.order[b]) })
	for _, p := range pos {
		t, st := m.order[p], m.stats[p]
		if err := writeUvarint(uint64(len(t))); err != nil {
			return cw.n, err
		}
		if _, err := bw.WriteString(t); err != nil {
			return cw.n, err
		}
		if err := writeUvarint(uint64(st.DF)); err != nil {
			return cw.n, err
		}
		if err := writeUvarint(uint64(st.CTF)); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, fmt.Errorf("langmodel: flush: %w", err)
	}
	return cw.n, nil
}

// ReadBinary parses a model written by WriteBinary.
func ReadBinary(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("langmodel: read magic: %w", err)
	}
	if string(magic) != string(binaryMagic) {
		return nil, fmt.Errorf("langmodel: bad magic %q", magic)
	}
	docs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("langmodel: docs: %w", err)
	}
	if docs > math.MaxInt {
		return nil, fmt.Errorf("langmodel: document count %d overflows", docs)
	}
	nterms, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("langmodel: term count: %w", err)
	}
	if nterms > maxBinaryTerms {
		return nil, fmt.Errorf("langmodel: implausible term count %d", nterms)
	}
	// Size the statistics from the header, but never by more than a corrupt
	// count could cost: past the hint they grow by doubling, capped at the
	// count, so an honest file ends at its exact size. Term bytes go into
	// one buffer, copied into one string at the end, and every term is a
	// slice of it.
	hint := int(min(nterms, maxBinaryPresize))
	m := &Model{stats: make([]TermStats, 0, hint), docs: int(docs)}
	ends := make([]int, 0, hint)
	var text []byte
	prev := 0 // where the previous term starts in text
	for i := uint64(0); i < nterms; i++ {
		l, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("langmodel: term %d length: %w", i, err)
		}
		if l > 1<<20 {
			return nil, fmt.Errorf("langmodel: implausible term length %d", l)
		}
		start := len(text)
		text = slices.Grow(text, int(l))[:start+int(l)]
		if _, err := io.ReadFull(br, text[start:]); err != nil {
			return nil, fmt.Errorf("langmodel: term %d bytes: %w", i, err)
		}
		// Strictly ascending, as WriteBinary writes: this also refuses a
		// duplicate, and makes a re-save reproduce the file's order.
		if i > 0 && bytes.Compare(text[prev:start], text[start:]) >= 0 {
			return nil, fmt.Errorf("langmodel: term %d %q does not sort after %q", i, text[start:], text[prev:start])
		}
		prev = start
		df, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("langmodel: term %d df: %w", i, err)
		}
		ctf, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("langmodel: term %d ctf: %w", i, err)
		}
		// A count past the signed range would read back negative.
		if df > math.MaxInt || ctf > math.MaxInt64 {
			return nil, fmt.Errorf("langmodel: term %d frequency overflows (df %d, ctf %d)", i, df, ctf)
		}
		if len(m.stats) == cap(m.stats) {
			grown := make([]TermStats, i, i+min(nterms-i, i))
			copy(grown, m.stats)
			m.stats = grown
		}
		m.stats = append(m.stats, TermStats{DF: int(df), CTF: int64(ctf)})
		ends = append(ends, len(text))
		m.totalCTF += int64(ctf)
	}
	all := string(text)
	m.order = make([]string, len(ends))
	start := 0
	for i, end := range ends {
		m.order[i] = all[start:end]
		start = end
	}
	m.reindex(indexSize(len(m.order)))
	// What bump would have counted, one mutation per term.
	m.version = nterms
	return m, nil
}
