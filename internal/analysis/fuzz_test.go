package analysis

import (
	"strings"
	"testing"
	"unicode"
)

// Fuzz targets run their seed corpus under plain `go test` and can be
// driven further with `go test -fuzz=FuzzTokenize ./internal/analysis`.

func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"", "hello world", "don't", "80% of 1,000", "ÜBER straße",
		"'''", "a-b-c", strings.Repeat("x", 10000), "日本語 text", "0ϓ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				t.Fatal("empty token")
			}
			for _, r := range tok {
				if unicode.IsUpper(r) && !caselessCapital(r) {
					t.Fatalf("upper-case rune in token %q", tok)
				}
				if unicode.IsSpace(r) {
					t.Fatalf("whitespace in token %q", tok)
				}
			}
			if strings.HasPrefix(tok, "'") || strings.HasSuffix(tok, "'") {
				t.Fatalf("token %q not apostrophe-trimmed", tok)
			}
		}
	})
}

// caselessCapitals are the letters Unicode classes as upper case (Lu) and
// gives no lower-case form: the tokenizer folds with unicode.ToLower, which
// has nothing to map them to, and keeps them as they are — they are letters,
// and a term spelled with one still matches itself. FuzzTokenize's "no
// upper-case rune in a token" property therefore names them, one by one,
// instead of weakening to ToLower(r) != r, which would only restate the
// fold. TestCaselessCapitalsTable holds the table to the toolchain's Unicode
// tables; a Unicode version that adds such a letter fails it and asks for
// the decision again.
var caselessCapitals = []struct{ lo, hi rune }{
	{0x03D2, 0x03D4}, // ϒ ϓ ϔ, the Greek upsilons with hook
	// Letterlike symbols: ℂ ℇ ℋℌℍ ℐℑℒ ℕ ℙℚℛℜℝ ℤ ℨ ℬℭ ℰℱ ℳ ℾℿ ⅅ
	{0x2102, 0x2102}, {0x2107, 0x2107}, {0x210B, 0x210D}, {0x2110, 0x2112},
	{0x2115, 0x2115}, {0x2119, 0x211D}, {0x2124, 0x2124}, {0x2128, 0x2128},
	{0x212C, 0x212D}, {0x2130, 0x2131}, {0x2133, 0x2133}, {0x213E, 0x213F},
	{0x2145, 0x2145},
	// Mathematical Alphanumeric Symbols, the capitals of each alphabet
	// (bold, italic, script, fraktur, double-struck, sans-serif, monospace
	// and the Greek ones), minus the holes the letterlike block fills.
	{0x1D400, 0x1D419}, {0x1D434, 0x1D44D}, {0x1D468, 0x1D481}, {0x1D49C, 0x1D49C},
	{0x1D49E, 0x1D49F}, {0x1D4A2, 0x1D4A2}, {0x1D4A5, 0x1D4A6}, {0x1D4A9, 0x1D4AC},
	{0x1D4AE, 0x1D4B5}, {0x1D4D0, 0x1D4E9}, {0x1D504, 0x1D505}, {0x1D507, 0x1D50A},
	{0x1D50D, 0x1D514}, {0x1D516, 0x1D51C}, {0x1D538, 0x1D539}, {0x1D53B, 0x1D53E},
	{0x1D540, 0x1D544}, {0x1D546, 0x1D546}, {0x1D54A, 0x1D550}, {0x1D56C, 0x1D585},
	{0x1D5A0, 0x1D5B9}, {0x1D5D4, 0x1D5ED}, {0x1D608, 0x1D621}, {0x1D63C, 0x1D655},
	{0x1D670, 0x1D689}, {0x1D6A8, 0x1D6C0}, {0x1D6E2, 0x1D6FA}, {0x1D71C, 0x1D734},
	{0x1D756, 0x1D76E}, {0x1D790, 0x1D7A8}, {0x1D7CA, 0x1D7CA},
}

func caselessCapital(r rune) bool {
	for _, rg := range caselessCapitals {
		if rg.lo <= r && r <= rg.hi {
			return true
		}
	}
	return false
}

// TestCaselessCapitalsTable: the table is exactly the set of upper-case
// runes ToLower leaves alone, no more (a foldable capital excused) and no
// fewer (a caseless one flagged).
func TestCaselessCapitalsTable(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		caseless := unicode.IsUpper(r) && unicode.ToLower(r) == r
		if caseless != caselessCapital(r) {
			t.Errorf("%U: upper case with no lower-case form is %v, in the table is %v", r, caseless, !caseless)
		}
	}
	// Keep: the tokenizer passes such a letter through as part of its token.
	if got := Tokenize("0ϓ ℝ2"); len(got) != 2 || got[0] != "0ϓ" || got[1] != "ℝ2" {
		t.Errorf("Tokenize kept %q", got)
	}
}

func FuzzPorter(f *testing.F) {
	for _, seed := range []string{
		"", "a", "running", "flies", "generalization", "sky",
		"bbbbbb", "aeiou", "yyyyy", "controlled",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		// Porter operates on lower-case ascii words; normalize the input
		// the way the tokenizer would.
		var b strings.Builder
		for _, r := range strings.ToLower(s) {
			if r >= 'a' && r <= 'z' {
				b.WriteRune(r)
			}
		}
		w := b.String()
		got := Porter(w)
		if want := porterRef(w); got != want {
			t.Fatalf("Porter(%q) = %q, reference %q", w, got, want)
		}
		if len(got) > len(w) {
			t.Fatalf("Porter(%q) = %q grew the word", w, got)
		}
		if got != Porter(w) {
			t.Fatalf("Porter(%q) nondeterministic", w)
		}
		if len(w) <= 2 && got != w {
			t.Fatalf("Porter(%q) changed a short word to %q", w, got)
		}
	})
}
