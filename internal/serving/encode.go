package serving

// The ranking encoder: every reply that carries a ranking — GET /rank, the
// buffered POST /rank/batch, an NDJSON or SSE item frame and the stream's
// done frame — is appended here, by hand, into a pooled buffer, in the
// style of internal/netsearch/codec.go. The bytes are exactly what
// encoding/json wrote for the structs these functions replaced (the
// reference declarations live in encode_test.go, and FuzzEncodeRanking
// holds the two together): same key order, the same omitted empty fields,
// the same number and string spellings. What the hand encoder buys is the
// per-frame cost — no reflection walk, no boxing of the frame in an `any`,
// no copy of the marshalled bytes — and a reply that exists in full before
// its status is written.

import (
	"errors"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/netsearch"
)

// errScore refuses a ranking with a NaN or infinite score: JSON has no
// spelling for one (encoding/json refused them the same way). A constant,
// so that the encoder allocates nothing even when it refuses.
var errScore = errors.New("serving: ranking carries a non-finite score, which JSON cannot")

// encBuf is a reply under construction. The pool holds pointers to it so
// that a Put does not box a slice header.
type encBuf struct{ b []byte }

var encBufs = sync.Pool{New: func() any { return new(encBuf) }}

// getBuf returns an empty buffer; the caller owes putBuf.
func getBuf() *encBuf { return encBufs.Get().(*encBuf) }

// putBuf takes a buffer back, unless its reply grew it past
// netsearch.BufRetain (a 1 024-query batch at k = all): that one is freed,
// so the resident set follows the traffic down again — the trim discipline,
// and the limit, of the netsearch codec, whose stream byte cap is cut to fit
// under it on both hops.
func putBuf(buf *encBuf) {
	if cap(buf.b) > netsearch.BufRetain {
		return
	}
	buf.b = buf.b[:0]
	encBufs.Put(buf)
}

// plain marks the ASCII bytes a JSON string carries as themselves. The rest
// are escaped: controls, the quote and the backslash, and — encoding/json's
// HTML-safe default — the three characters that open markup.
var plain = func() (t [utf8.RuneSelf]bool) {
	for b := range t {
		t[b] = b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string: short escapes for the controls
// that have one, \u00XX for the other controls and for < > &, U+2028 and
// U+2029 escaped (valid JSON, but not valid JavaScript), each byte of
// invalid UTF-8 replaced by \ufffd, everything else as it is.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if plain[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendScore appends f as a JSON number the way encoding/json spells a
// float64 (ES6 number-to-string): shortest digits that round-trip, plain
// notation from 1e-6 up to 1e21 and exponent notation outside, a negative
// exponent without its padding zero (e-09 → e-9).
func appendScore(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errScore
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// appendRanked appends a ranking, [{"name":…,"score":…},…] — the whole GET
// /rank reply. A nil ranking is null and an empty one [], as a slice is to
// encoding/json.
func appendRanked(dst []byte, ranked []RankedDB) ([]byte, error) {
	if ranked == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i := range ranked {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = appendString(dst, ranked[i].Name)
		dst = append(dst, `,"score":`...)
		var err error
		if dst, err = appendScore(dst, ranked[i].Score); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

// appendItem appends one query's outcome, {"index":i,"ranked":[…],"error":"…"}:
// a stream's item frame. A negative index is left out — the buffered
// reply's items are positional — and so are an empty ranking and an empty
// error.
func appendItem(dst []byte, index int, it Item) ([]byte, error) {
	dst = append(dst, '{')
	if index >= 0 {
		dst = append(dst, `"index":`...)
		dst = strconv.AppendInt(dst, int64(index), 10)
	}
	if len(it.Ranked) > 0 {
		if dst[len(dst)-1] != '{' {
			dst = append(dst, ',')
		}
		dst = append(dst, `"ranked":`...)
		var err error
		if dst, err = appendRanked(dst, it.Ranked); err != nil {
			return dst, err
		}
	}
	if it.Error != "" {
		if dst[len(dst)-1] != '{' {
			dst = append(dst, ',')
		}
		dst = append(dst, `"error":`...)
		dst = appendString(dst, it.Error)
	}
	return append(dst, '}'), nil
}

// appendBatch appends the buffered POST /rank/batch reply,
// {"results":[{…},…]}: one item per query in request order.
func appendBatch(dst []byte, items []Item) ([]byte, error) {
	dst = append(dst, `{"results":`...)
	if items == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range items {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendItem(dst, -1, items[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendDone appends a stream's terminal frame, {"done":true,"results":n}:
// results counts the item frames sent.
func appendDone(dst []byte, results int) []byte {
	dst = append(dst, `{"done":true,"results":`...)
	dst = strconv.AppendInt(dst, int64(results), 10)
	return append(dst, '}')
}
