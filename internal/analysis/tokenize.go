// Package analysis provides the text-processing substrate used by both the
// databases (to build their own indexes) and the selection service (to build
// learned language models from sampled documents): tokenization, case
// folding, a 418-entry stopword list matching the size of InQuery's default
// list, and the Porter (1980) stemming algorithm.
//
// Databases and the selection service are configured with independent
// Analyzer pipelines. That asymmetry is central to the paper: cooperative
// protocols founder on incompatible per-database indexing conventions, while
// query-based sampling lets the selection service normalize sampled text
// however it likes (§2.2, §3).
package analysis

import (
	"sync"
	"unicode"
	"unicode/utf8"
)

// Tokenize splits text into lower-cased tokens. A token is a maximal run of
// letters, digits, or internal apostrophes; all other characters separate
// tokens. The rules mirror the simple word tokenizers of 1990s IR engines:
// "U.S." becomes "u", "s"; "don't" stays one token; "80%" yields "80".
//
// Leading and trailing apostrophes never survive: an apostrophe is only
// committed to a token when a letter or digit follows it within the same
// token, so trimming happens during the scan rather than as a post-pass
// over each built string.
func Tokenize(text string) []string {
	return AppendTokens(nil, text)
}

// tokenBufPool holds the scratch buffers AppendTokens folds mixed-case and
// non-ASCII tokens into, so the query-serving hot path never allocates one
// per call.
var tokenBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 64); return &b },
}

// ownedToken copies a token out of a scratch buffer: the package's one
// allocation per token, paid only by a token whose bytes had to be rewritten
// — case-folded or UTF-8-lowered by AppendTokens, or changed by one of
// Porter's rules. A token that is a run of the input as it stands is a
// slice of it and never comes here.
func ownedToken(scratch []byte) string {
	return string(scratch)
}

// AppendTokens tokenizes text exactly like Tokenize and appends the tokens
// to dst, returning the extended slice. It is the allocation-free form of
// Tokenize for hot paths: tokens that are already lower-case ASCII are
// sliced directly from text (no copy), tokens that need case folding or
// UTF-8 lowering are built in a pooled scratch buffer, and dst's capacity
// is reused across calls. With a recycled dst and lower-case ASCII input
// the function performs zero heap allocations.
//
// Aliasing: because sliced tokens share text's backing array, retaining a
// token keeps the entire source string reachable. Callers that store
// tokens beyond the current request — map keys in a model or index built
// from large documents — must copy them (strings.Clone) at the retention
// site; transient uses (scoring a query, counting) need not.
func AppendTokens(dst []string, text string) []string {
	const noToken = -1
	start := noToken // byte index where the current token began in text
	lastLD := 0      // byte index just past the token's last letter/digit
	pending := 0     // apostrophes seen since the last letter/digit

	// Scratch-buffer ("folded") mode is entered the first time a token
	// needs rewriting (an upper-case ASCII letter or any non-ASCII rune).
	var buf *[]byte
	folded := false

	flush := func() {
		if start != noToken {
			if folded {
				if len(*buf) > 0 {
					dst = append(dst, ownedToken(*buf))
				}
			} else if lastLD > start {
				dst = append(dst, text[start:lastLD])
			}
		}
		start, pending, folded = noToken, 0, false
	}
	// enterFolded switches the in-progress token to the scratch buffer,
	// seeding it with the committed (already lower-case) prefix.
	enterFolded := func(i int) {
		if buf == nil {
			buf = tokenBufPool.Get().(*[]byte)
		}
		*buf = (*buf)[:0]
		if start != noToken && lastLD > start {
			*buf = append(*buf, text[start:lastLD]...)
		}
		if start == noToken {
			start = i
		}
		folded = true
	}
	// commitPending writes the apostrophes that turned out to be interior.
	commitPending := func() {
		for ; pending > 0; pending-- {
			*buf = append(*buf, '\'')
		}
	}

	for i := 0; i < len(text); {
		b := text[i]
		switch {
		case b >= 'a' && b <= 'z' || b >= '0' && b <= '9':
			if folded {
				commitPending()
				*buf = append(*buf, b)
			} else {
				if start == noToken {
					start = i
				}
				// In slice mode pending apostrophes are already part of
				// text[start:i], so extending lastLD past them commits
				// them; zero the counter so a later switch to folded mode
				// does not append them a second time.
				pending = 0
			}
			lastLD = i + 1
			i++
		case b >= 'A' && b <= 'Z':
			if !folded {
				enterFolded(i)
			}
			commitPending()
			*buf = append(*buf, b+'a'-'A')
			lastLD = i + 1
			i++
		case b == '\'':
			if start != noToken {
				pending++
			}
			i++
		case b < utf8.RuneSelf:
			flush()
			i++
		default:
			r, size := utf8.DecodeRuneInString(text[i:])
			if unicode.IsLetter(r) || unicode.IsDigit(r) {
				if !folded {
					enterFolded(i)
				}
				commitPending()
				*buf = utf8.AppendRune(*buf, unicode.ToLower(r))
				lastLD = i + size
			} else {
				flush()
			}
			i += size
		}
	}
	flush()
	if buf != nil {
		tokenBufPool.Put(buf)
	}
	return dst
}

// IsNumber reports whether the token consists entirely of digits (with an
// optional single decimal point or leading sign removed by tokenization,
// only digit runs survive). The sampler's query-term eligibility rule (§4.4)
// rejects numbers.
func IsNumber(tok string) bool {
	if tok == "" {
		return false
	}
	for _, r := range tok {
		if !unicode.IsDigit(r) {
			return false
		}
	}
	return true
}
