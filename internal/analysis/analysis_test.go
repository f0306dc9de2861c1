package analysis

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenizeBasic(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"don't stop", []string{"don't", "stop"}},
		{"U.S. policy", []string{"u", "s", "policy"}},
		{"80% of 1,000 docs", []string{"80", "of", "1", "000", "docs"}},
		{"", nil},
		{"   \t\n ", nil},
		{"'quoted'", []string{"quoted"}},
		{"foo--bar", []string{"foo", "bar"}},
		{"Wall Street Journal (1988)", []string{"wall", "street", "journal", "1988"}},
		{"e-mail", []string{"e", "mail"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestTokenizeApostrophes pins the apostrophe rules at every position a
// quote can occupy. Trimming is folded into the scan loop (an apostrophe
// is committed only when a letter or digit follows it inside the token),
// so none of these cases depend on a post-pass over the built string.
func TestTokenizeApostrophes(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"don't", []string{"don't"}},
		{"'rock", []string{"rock"}},
		{"rock'", []string{"rock"}},
		{"''rock", []string{"rock"}},
		{"rock''", []string{"rock"}},
		{"''rock''", []string{"rock"}},
		{"rock''roll", []string{"rock''roll"}},
		{"'", nil},
		{"'''", nil},
		{"' ' '", nil},
		{"a'", []string{"a"}},
		{"'a", []string{"a"}},
		{"o''", []string{"o"}},
		{"can't've", []string{"can't've"}},
		{"'tis the season", []string{"tis", "the", "season"}},
		{"DON'T", []string{"don't"}},
		{"O'Brien's", []string{"o'brien's"}},
		{"'80s music", []string{"80s", "music"}},
		{"x'' y''z", []string{"x", "y''z"}},
		{"naïve' 'café", []string{"naïve", "café"}},
		// Apostrophes committed in slice mode must not be re-emitted when
		// a later rune switches the token to folded mode (regression:
		// "don'tX" once tokenized as "don't'x").
		{"don'tX", []string{"don'tx"}},
		{"0'aB", []string{"0'ab"}},
		{"don'té", []string{"don'té"}},
		{"a''bC", []string{"a''bc"}},
		{"don'tX'Y", []string{"don'tx'y"}},
	}
	for _, c := range cases {
		if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAppendTokensReusesDst(t *testing.T) {
	dst := make([]string, 0, 16)
	got := AppendTokens(dst, "alpha beta")
	got = AppendTokens(got, "Gamma")
	want := []string{"alpha", "beta", "gamma"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AppendTokens accumulated %v, want %v", got, want)
	}
	if &got[0] != &dst[:1][0] {
		t.Error("AppendTokens reallocated despite sufficient capacity")
	}
}

// TestAppendTokensZeroAlloc is the allocation contract of the serving
// path's tokenizer and of the pipeline around it, with a recycled dst: a
// token the input already spells is sliced from it and costs nothing, and
// a token that had to be rewritten — case-folded, UTF-8-lowered, or
// changed by a Porter rule — costs exactly its own string. Lower-case
// ASCII text therefore never touches the heap. Between them the inputs
// run every statement of AppendTokens, Analyzer.AppendTokens,
// Stoplist.Contains and IsNumber.
func TestAppendTokensZeroAlloc(t *testing.T) {
	stemmed := Analyzer{Stoplist: InqueryStoplist(), Stem: true, MinLength: 3, DropNumbers: true}
	for _, c := range []struct {
		a      Analyzer
		text   string
		want   []string
		allocs float64
	}{
		{Raw(), "apple pie with baked apple slices don't stop 80 of 1 000 docs",
			[]string{"apple", "pie", "with", "baked", "apple", "slices", "don't", "stop", "80", "of", "1", "000", "docs"}, 0},
		// Apostrophes before a token, inside it, and trailing it.
		{Raw(), "'tis rock'n'roll'' ''", []string{"tis", "rock'n'roll"}, 0},
		// A non-ASCII separator and a byte of invalid UTF-8 split tokens.
		{Raw(), "a—b x\x80y", []string{"a", "b", "x", "y"}, 0},
		// Upper case opening a token, after a committed prefix, after a
		// pending apostrophe, and before lower case, digits and apostrophes.
		// A one-byte token is the runtime's own static string and free.
		{Raw(), "The U.S. iPhone don'T Rock'n'roll X'9", []string{"the", "u", "s", "iphone", "don't", "rock'n'roll", "x'9"}, 5},
		// Non-ASCII letters: opening a token, after a committed prefix, and
		// after a pending apostrophe, in a token already folded.
		{Raw(), "ÉCOLE café O'É", []string{"école", "café", "o'é"}, 3},
		// The pipeline: a stopword, a number, a short token, stems that are
		// a prefix of their token, and one that a rule rewrote.
		{stemmed, "the 80 ox sampling documents happy", []string{"sampl", "document", "happi"}, 1},
		{Analyzer{Stoplist: &Stoplist{}}, "of 8a", []string{"of", "8a"}, 0},
		{Analyzer{DropNumbers: true}, "8a 80", []string{"8a"}, 0},
	} {
		if raceEnabled && c.allocs > 0 {
			continue // the fold buffer comes from a pool that -race drops
		}
		dst := make([]string, 0, 16)
		allocs := testing.AllocsPerRun(100, func() {
			dst = c.a.AppendTokens(dst[:0], c.text)
		})
		if !reflect.DeepEqual(dst, c.want) {
			t.Errorf("AppendTokens(%q) = %q, want %q", c.text, dst, c.want)
		}
		if allocs != c.allocs {
			t.Errorf("AppendTokens(%q): %v allocations, want %v", c.text, allocs, c.allocs)
		}
	}
	// A token cannot be empty, so only a direct call asks IsNumber about one.
	if allocs := testing.AllocsPerRun(100, func() {
		if IsNumber("") || !IsNumber("80") {
			t.Fatal("IsNumber")
		}
	}); allocs != 0 {
		t.Errorf("IsNumber: %v allocations, want 0", allocs)
	}
}

// TestAppendTokensMatchesTokenize cross-checks the byte-level scanner
// against representative inputs covering the fold-mode transitions (ASCII
// upper case, UTF-8, invalid UTF-8, apostrophes at mode switches).
func TestAppendTokensMatchesTokenize(t *testing.T) {
	inputs := []string{
		"", "plain lower text", "MiXeD CaSe", "ÜBER straße", "日本語 text",
		"a'B c'D", "x\x80y", "Don't O'Brien's 'tis ROCK'' ''ROLL",
		"café Naïve ÉCOLE", "a2B3c4 A'9'z", strings.Repeat("Word' ", 50),
		// Slice-mode-committed apostrophes followed by a fold transition.
		"don'tX 0'aB don'té a''bC don'tX'Y x'yZ'w",
	}
	for _, in := range inputs {
		var ref []string
		// Reference: the original rune-loop semantics, reconstructed.
		var b strings.Builder
		flush := func() {
			if tok := strings.Trim(b.String(), "'"); tok != "" {
				ref = append(ref, tok)
			}
			b.Reset()
		}
		for _, r := range in {
			switch {
			case unicode.IsLetter(r) || unicode.IsDigit(r):
				b.WriteRune(unicode.ToLower(r))
			case r == '\'':
				if b.Len() > 0 {
					b.WriteRune(r)
				}
			default:
				flush()
			}
		}
		flush()
		if got := Tokenize(in); !reflect.DeepEqual(got, ref) {
			t.Errorf("Tokenize(%q) = %v, reference loop gives %v", in, got, ref)
		}
	}
}

func TestAnalyzerAppendTokens(t *testing.T) {
	a := Database()
	dst := []string{"seed"}
	got := a.AppendTokens(dst, "The running dogs")
	want := []string{"seed", "run", "dog"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AppendTokens = %v, want %v", got, want)
	}
}

func TestTokenizeLowercases(t *testing.T) {
	for _, tok := range Tokenize("MiXeD CaSe TOKENS") {
		if tok != strings.ToLower(tok) {
			t.Errorf("token %q not lower-cased", tok)
		}
	}
}

func TestTokenizeNoEmptyTokens(t *testing.T) {
	if err := quick.Check(func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsNumber(t *testing.T) {
	cases := map[string]bool{
		"123":   true,
		"0":     true,
		"12a":   false,
		"abc":   false,
		"":      false,
		"1988":  true,
		"don't": false,
	}
	for in, want := range cases {
		if got := IsNumber(in); got != want {
			t.Errorf("IsNumber(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestInqueryStoplistSize(t *testing.T) {
	// The paper's databases used InQuery's default 418-word stoplist (§4.1).
	s := InqueryStoplist()
	if s.Len() != 418 {
		t.Fatalf("stoplist has %d words, want 418", s.Len())
	}
}

func TestStoplistContains(t *testing.T) {
	s := InqueryStoplist()
	for _, w := range []string{"the", "and", "a", "of", "is", "was", "which"} {
		if !s.Contains(w) {
			t.Errorf("expected stopword %q missing", w)
		}
	}
	for _, w := range []string{"apple", "database", "query", "microsoft"} {
		if s.Contains(w) {
			t.Errorf("content word %q wrongly in stoplist", w)
		}
	}
}

func TestStoplistNilSafe(t *testing.T) {
	var s *Stoplist
	if s.Contains("the") {
		t.Error("nil stoplist should contain nothing")
	}
	if s.Len() != 0 {
		t.Error("nil stoplist should have length 0")
	}
}

func TestAnalyzerRaw(t *testing.T) {
	a := Raw()
	got := a.Tokens("The running dogs ran quickly")
	want := []string{"the", "running", "dogs", "ran", "quickly"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Raw().Tokens = %v, want %v", got, want)
	}
}

func TestAnalyzerDatabase(t *testing.T) {
	a := Database()
	got := a.Tokens("The running dogs ran quickly")
	// "the" stopped; rest stemmed.
	want := []string{"run", "dog", "ran", "quickli"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Database().Tokens = %v, want %v", got, want)
	}
}

func TestAnalyzerMinLengthAndNumbers(t *testing.T) {
	a := Analyzer{MinLength: 3, DropNumbers: true}
	got := a.Tokens("a an the 42 1988 cat dogs")
	want := []string{"the", "cat", "dogs"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Tokens = %v, want %v", got, want)
	}
}

func TestAnalyzerTerm(t *testing.T) {
	a := Database()
	if _, ok := a.Term("the"); ok {
		t.Error("stopword survived Term")
	}
	if got, ok := a.Term("running"); !ok || got != "run" {
		t.Errorf("Term(running) = %q, %v", got, ok)
	}
	if _, ok := a.Term(""); ok {
		t.Error("empty token survived Term")
	}
}

func TestAnalyzerTermMatchesTokens(t *testing.T) {
	// Term must agree with Tokens on single-word input.
	a := Database()
	words := []string{"the", "running", "databases", "microsoft", "42", "a"}
	for _, w := range words {
		viaTokens := a.Tokens(w)
		term, ok := a.Term(w)
		if ok != (len(viaTokens) == 1) {
			t.Errorf("Term(%q) ok=%v but Tokens gave %v", w, ok, viaTokens)
			continue
		}
		if ok && term != viaTokens[0] {
			t.Errorf("Term(%q)=%q, Tokens gave %q", w, term, viaTokens[0])
		}
	}
}

func BenchmarkTokenize(b *testing.B) {
	text := strings.Repeat("The quick brown fox jumps over the lazy dog. ", 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokenize(text)
	}
}

func BenchmarkAnalyzerDatabase(b *testing.B) {
	a := Database()
	text := strings.Repeat("Information retrieval systems index documents using inverted files. ", 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Tokens(text)
	}
}
