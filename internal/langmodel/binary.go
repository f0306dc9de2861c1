package langmodel

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
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
// Terms are sorted and the whole file is deterministic for a given model.
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
	terms := m.Vocabulary()
	for _, t := range terms {
		st, _ := m.lookup(t)
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
	// Size the vocabulary from the header, but never by more than a corrupt
	// count could cost: a larger model grows past the hint as it would have
	// grown from empty.
	hint := int(min(nterms, maxBinaryPresize))
	m := &Model{
		terms: make(map[string]TermStats, hint),
		order: make([]string, 0, hint),
		docs:  int(docs),
	}
	var nameBuf []byte
	for i := uint64(0); i < nterms; i++ {
		l, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("langmodel: term %d length: %w", i, err)
		}
		if l > 1<<20 {
			return nil, fmt.Errorf("langmodel: implausible term length %d", l)
		}
		if uint64(cap(nameBuf)) < l {
			nameBuf = make([]byte, l)
		}
		nameBuf = nameBuf[:l]
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return nil, fmt.Errorf("langmodel: term %d bytes: %w", i, err)
		}
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
		// One allocation, one map operation per term: a store that does not
		// grow the map overwrote an earlier copy of the term.
		term := string(nameBuf)
		m.terms[term] = TermStats{DF: int(df), CTF: int64(ctf)}
		if len(m.terms) == len(m.order) {
			return nil, fmt.Errorf("langmodel: duplicate term %q", term)
		}
		m.order = append(m.order, term)
		m.totalCTF += int64(ctf)
	}
	// What bump would have counted, one mutation per term.
	m.version = nterms
	return m, nil
}
