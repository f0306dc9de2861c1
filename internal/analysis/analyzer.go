package analysis

// Analyzer is a configurable text-processing pipeline: tokenize, optionally
// drop stopwords, optionally stem. Each database indexes with its own
// Analyzer; the selection service chooses its own, independent one for
// learned language models. See the package comment for why the asymmetry
// matters.
type Analyzer struct {
	// Stoplist, when non-nil, removes its words after tokenization.
	Stoplist *Stoplist
	// Stem applies the Porter stemmer to each surviving token.
	Stem bool
	// MinLength drops tokens shorter than this many bytes (0 keeps all).
	MinLength int
	// DropNumbers removes all-digit tokens.
	DropNumbers bool
}

// Raw is the pipeline the selection service applies to sampled documents:
// no stopping, no stemming — learned language models keep every term, and
// normalization happens only at comparison time, exactly as in §4.1.
func Raw() Analyzer {
	return Analyzer{}
}

// Database is the pipeline the experiment databases use for their own
// indexes: InQuery's default stoplist plus Porter stemming (§4.1).
func Database() Analyzer {
	return Analyzer{Stoplist: InqueryStoplist(), Stem: true}
}

// Tokens runs the pipeline over text and returns the index terms.
func (a Analyzer) Tokens(text string) []string {
	return a.AppendTokens(nil, text)
}

// AppendTokens runs the pipeline over text and appends the surviving index
// terms to dst, returning the extended slice. It is the allocation-free
// form of Tokens for hot paths: recycling dst across calls reuses its
// capacity, and the underlying tokenizer slices lower-case ASCII tokens
// straight out of text. Sliced tokens alias text's backing array (see
// AppendTokens in tokenize.go), and with Stem set so do most stems: Porter
// returns a prefix of the token wherever stripping a suffix is all it did.
// Callers that retain tokens past the call must copy them (strings.Clone);
// langmodel.Model copies a document's new vocabulary into one string.
func (a Analyzer) AppendTokens(dst []string, text string) []string {
	base := len(dst)
	dst = AppendTokens(dst, text)
	// Filter in place over the freshly appended window: the write index
	// never passes the read index, so the aliasing is safe.
	out := dst[:base]
	for _, t := range dst[base:] {
		if a.MinLength > 0 && len(t) < a.MinLength {
			continue
		}
		if a.DropNumbers && IsNumber(t) {
			continue
		}
		if a.Stoplist.Contains(t) {
			continue
		}
		if a.Stem {
			t = Porter(t)
		}
		out = append(out, t)
	}
	return out
}

// Term runs the pipeline over a single token (already lower-case) and
// reports whether it survives; the transformed term is returned. Used when
// normalizing a learned vocabulary against a database's conventions. The
// term may alias tok (it is tok, or with Stem set a prefix of it): a caller
// that keeps it longer than whatever owns tok must strings.Clone it.
func (a Analyzer) Term(tok string) (string, bool) {
	if tok == "" {
		return "", false
	}
	if a.MinLength > 0 && len(tok) < a.MinLength {
		return "", false
	}
	if a.DropNumbers && IsNumber(tok) {
		return "", false
	}
	if a.Stoplist.Contains(tok) {
		return "", false
	}
	if a.Stem {
		tok = Porter(tok)
	}
	return tok, true
}
