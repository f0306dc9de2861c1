package index

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
	"repro/internal/corpus"
)

// Index persistence. A database's index is expensive to build relative to
// loading it, so indexes can be saved to disk and reopened — the way any
// real search service runs. The format is a gob-encoded snapshot of the
// postings, documents, statistics, and enough of the analyzer
// configuration (stem flag, stopword list, length/number filters) to
// reconstruct an identical query pipeline.

// indexDTO is the exported on-disk shape of an Index.
type indexDTO struct {
	Scoring  Scoring
	Analyzer analyzerDTO
	Docs     []corpus.Document
	DocLens  []int32
	Postings map[string][]postingDTO
	CTF      map[string]int64
	TotalLen int64
}

type postingDTO struct {
	Doc int32
	TF  int32
}

type analyzerDTO struct {
	Stopwords   []string
	Stem        bool
	MinLength   int
	DropNumbers bool
}

// WriteTo serializes the index. It implements io.WriterTo.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	dto := indexDTO{
		Scoring: ix.scoring,
		Analyzer: analyzerDTO{
			Stem:        ix.analyzer.Stem,
			MinLength:   ix.analyzer.MinLength,
			DropNumbers: ix.analyzer.DropNumbers,
		},
		Docs:     ix.docs,
		DocLens:  ix.docLens,
		Postings: make(map[string][]postingDTO, len(ix.postings)),
		CTF:      ix.ctf,
		TotalLen: ix.totalLen,
	}
	if ix.analyzer.Stoplist != nil {
		dto.Analyzer.Stopwords = ix.analyzer.Stoplist.Words()
	}
	for t, plist := range ix.postings {
		out := make([]postingDTO, len(plist))
		for i, p := range plist {
			out[i] = postingDTO{Doc: p.doc, TF: p.tf}
		}
		dto.Postings[t] = out
	}
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	if err := gob.NewEncoder(bw).Encode(&dto); err != nil {
		return cw.n, fmt.Errorf("index: encode: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return cw.n, fmt.Errorf("index: flush: %w", err)
	}
	return cw.n, nil
}

// ReadFrom deserializes an index written by WriteTo.
func ReadFrom(r io.Reader) (*Index, error) {
	var dto indexDTO
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&dto); err != nil {
		return nil, fmt.Errorf("index: decode: %w", err)
	}
	an := analysis.Analyzer{
		Stem:        dto.Analyzer.Stem,
		MinLength:   dto.Analyzer.MinLength,
		DropNumbers: dto.Analyzer.DropNumbers,
	}
	if len(dto.Analyzer.Stopwords) > 0 {
		an.Stoplist = analysis.NewStoplist(dto.Analyzer.Stopwords)
	}
	ix := New(an, dto.Scoring)
	ix.docs = dto.Docs
	ix.docLens = dto.DocLens
	ix.totalLen = dto.TotalLen
	if dto.CTF != nil {
		ix.ctf = dto.CTF
	}
	for t, plist := range dto.Postings {
		in := make([]posting, len(plist))
		for i, p := range plist {
			if int(p.Doc) < 0 || int(p.Doc) >= len(ix.docs) {
				return nil, fmt.Errorf("index: posting for %q references missing document %d", t, p.Doc)
			}
			in[i] = posting{doc: p.Doc, tf: p.TF}
		}
		ix.postings[t] = in
	}
	if len(ix.docLens) != len(ix.docs) {
		return nil, fmt.Errorf("index: %d doc lengths for %d documents", len(ix.docLens), len(ix.docs))
	}
	return ix, nil
}

// Save writes the index to a file.
func (ix *Index) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	if _, err := ix.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	return nil
}

// Load reads an index from a file written by Save.
func Load(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	defer f.Close()
	return ReadFrom(f)
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
