package langmodel

import (
	"bufio"
	"fmt"
	"io"
)

// DumpTSV writes "term df ctf" lines in sorted term order — the text
// export of cmd/qbsample -tsv and lmtool dump.
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

// Equal reports whether two models have identical statistics, corpus-level
// counts included (used by round-trip tests).
func (m *Model) Equal(other *Model) bool {
	if m.docs != other.docs || m.totalCTF != other.totalCTF || m.VocabSize() != other.VocabSize() {
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

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
