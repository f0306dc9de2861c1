package langmodel

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// modelJSON is the on-disk representation: a STARTS-like export with the
// document count and one [df, ctf] pair per term.
type modelJSON struct {
	Docs  int                 `json:"docs"`
	Terms map[string][2]int64 `json:"terms"`
}

// WriteTo serializes the model as JSON. It implements io.WriterTo.
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	dto := modelJSON{Docs: m.docs, Terms: make(map[string][2]int64, m.VocabSize())}
	m.Range(func(t string, st TermStats) bool {
		dto.Terms[t] = [2]int64{int64(st.DF), st.CTF}
		return true
	})
	cw := &countingWriter{w: w}
	enc := json.NewEncoder(cw)
	if err := enc.Encode(dto); err != nil {
		return cw.n, fmt.Errorf("langmodel: encode: %w", err)
	}
	return cw.n, nil
}

// Read parses a model previously written by WriteTo.
func Read(r io.Reader) (*Model, error) {
	var dto modelJSON
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&dto); err != nil {
		return nil, fmt.Errorf("langmodel: decode: %w", err)
	}
	m := New()
	m.docs = dto.Docs
	// Insert in sorted term order: JSON map iteration is randomized, and
	// models read from disk must behave identically across process runs.
	terms := make([]string, 0, len(dto.Terms))
	for t := range dto.Terms {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	for _, t := range terms {
		pair := dto.Terms[t]
		if pair[0] < 0 || pair[1] < 0 {
			return nil, fmt.Errorf("langmodel: negative frequency for term %q", t)
		}
		m.bump(t, int(pair[0]), pair[1])
		m.totalCTF += pair[1]
	}
	return m, nil
}

// Save writes the model to a file.
func (m *Model) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("langmodel: save: %w", err)
	}
	if _, err := m.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("langmodel: save: %w", err)
	}
	return nil
}

// Load reads a model from a file written by Save.
func Load(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("langmodel: load: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// DumpTSV writes "term df ctf" lines in sorted term order — a human- and
// diff-friendly export used by cmd/qbsample.
func (m *Model) DumpTSV(w io.Writer) error {
	terms := m.Vocabulary()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# docs=%d terms=%d total_ctf=%d\n", m.docs, m.VocabSize(), m.totalCTF)
	for _, t := range terms {
		st, _ := m.lookup(t)
		fmt.Fprintf(bw, "%s\t%d\t%d\n", t, st.DF, st.CTF)
	}
	return bw.Flush()
}

// Equal reports whether two models have identical statistics (used by
// round-trip tests).
func (m *Model) Equal(other *Model) bool {
	if m.docs != other.docs || m.VocabSize() != other.VocabSize() {
		return false
	}
	equal := true
	m.Range(func(t string, st TermStats) bool {
		if ost, ok := other.lookup(t); !ok || ost != st {
			equal = false
		}
		return equal
	})
	return equal
}

// sortedTerms is a test helper ensuring deterministic ordering when needed.
func (m *Model) sortedStats() []struct {
	Term string
	TermStats
} {
	out := make([]struct {
		Term string
		TermStats
	}, 0, m.VocabSize())
	m.Range(func(t string, st TermStats) bool {
		out = append(out, struct {
			Term string
			TermStats
		}{t, st})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Term < out[j].Term })
	return out
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
