package analysis_test

import (
	"hash/maphash"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/corpus"
)

// oracleSuffixes puts every rule of steps 1a-5b behind every corpus token:
// each suffix a rule names, plus the endings that steer a rule's condition
// (a doubled consonant before ed, an s or t before ion, a cvc stem before e).
var oracleSuffixes = []string{
	"",
	// 1a
	"sses", "ies", "ss", "s",
	// 1b and its tidying
	"eed", "ed", "ing", "ated", "bling", "ized", "tted", "lling", "ssed", "zzing", "oped", "oping",
	// 1c
	"y", "ay",
	// 2
	"ational", "tional", "enci", "anci", "izer", "abli", "alli", "entli", "eli", "ousli",
	"ization", "ation", "ator", "alism", "iveness", "fulness", "ousness", "aliti", "iviti", "biliti",
	// 3
	"icate", "ative", "alize", "iciti", "ical", "ful", "ness",
	// 4
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment", "ent",
	"sion", "tion", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
	// 5a, 5b
	"e", "ote", "ll", "ell",
}

// TestPorterMatchesReference holds the kernel to the implementation it
// replaced on a vocabulary no hand-picked list reaches: every token of two
// generated corpora, each extended by every suffix above.
func TestPorterMatchesReference(t *testing.T) {
	if len(oracleSuffixes) < 60 {
		t.Fatalf("only %d suffixes", len(oracleSuffixes))
	}
	base := make(map[string]struct{})
	for _, p := range []corpus.Profile{corpus.CACM(), corpus.WSJ88()} {
		docs, err := corpus.Scaled(p, 0.05).Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			for _, tok := range analysis.Tokenize(d.Text) {
				base[tok] = struct{}{}
			}
		}
	}
	// Distinct words are counted by hash: a set of a million strings is a
	// hundred megabytes the comparison itself has no use for.
	seed := maphash.MakeSeed()
	hashes := make([]uint64, 0, len(base)*len(oracleSuffixes))
	mismatches := 0
	for tok := range base {
		for _, suf := range oracleSuffixes {
			w := tok + suf
			hashes = append(hashes, maphash.String(seed, w))
			if got, want := analysis.Porter(w), analysis.PorterRef(w); got != want {
				if mismatches++; mismatches <= 20 {
					t.Errorf("Porter(%q) = %q, reference %q", w, got, want)
				}
			}
		}
	}
	slices.Sort(hashes)
	if distinct := len(slices.Compact(hashes)); distinct < 1_000_000 {
		t.Errorf("compared %d distinct words, want at least 1M", distinct)
	}
}

// TestPorterAllocations pins the aliasing contract from the allocator's
// side: a stem that is a prefix of the word costs nothing, a rewritten one
// exactly its own string, and a word too long for the stack buffer stems
// like any other. Porter's published vectors, and the words after them,
// run every rule and every condition of the kernel under the count.
func TestPorterAllocations(t *testing.T) {
	words := append([]string{
		"ies",       // step 1a leaves one byte: steps 2 and 4 have nothing to test
		"flying",    // a y after the first byte is a vowel
		"toying",    // a y after a vowel is a consonant, and ends no cvc
		"champion",  // ion after neither s nor t stays
		"organizer", // step 2's izer
	}, analysis.PorterWords...)
	for _, w := range words {
		stem := analysis.PorterRef(w)
		want := 0.0
		if !strings.HasPrefix(w, stem) {
			want = 1
		}
		got := testing.AllocsPerRun(100, func() {
			if analysis.Porter(w) != stem {
				t.Fatalf("Porter(%q) = %q, reference %q", w, analysis.Porter(w), stem)
			}
		})
		if got != want {
			t.Errorf("Porter(%q) = %q: %v allocations, want %v", w, stem, got, want)
		}
	}

	for _, c := range []struct {
		word, stem string
		allocs     float64
	}{
		{"documents", "document", 0},
		{"sampling", "sampl", 0},
		{"goodness", "good", 0},
		{"relational", "relat", 0}, // rewritten to relate on the way, a prefix again at the end
		{"happy", "happi", 1},
		{"filing", "file", 1},
		{"queries", "queri", 0},
		{"conditionally", "condition", 0},
		{"sized", "size", 0}, // the restored e is the word's own
		{"hoping", "hope", 1},
	} {
		if got := analysis.Porter(c.word); got != c.stem {
			t.Errorf("Porter(%q) = %q, want %q", c.word, got, c.stem)
		}
		if got := testing.AllocsPerRun(100, func() { analysis.Porter(c.word) }); got != c.allocs {
			t.Errorf("Porter(%q): %v allocations, want %v", c.word, got, c.allocs)
		}
	}
	long := strings.Repeat("over", 40) // 160 bytes, past the 64-byte stack buffer
	for _, suf := range []string{"", "s", "ing", "ational", "ization", "y", "ely"} {
		w := long + suf
		if got, want := analysis.Porter(w), analysis.PorterRef(w); got != want {
			t.Errorf("Porter(long+%q) = …%q, reference …%q", suf, got[len(got)-12:], want[len(want)-12:])
		}
	}
	if analysis.RaceEnabled {
		return // the long word's buffer comes from a pool that -race drops
	}
	plural := long + "s"
	analysis.Porter(plural) // grows the pooled buffer, once
	if got := testing.AllocsPerRun(100, func() { analysis.Porter(plural) }); got != 0 {
		t.Errorf("long prefix stem: %v allocations, want 0", got)
	}
}

// BenchmarkPorter stems what a database's analyzer stems: the 200 most
// frequent tokens of a generated WSJ88 sample that survive the stoplist,
// each as often as the rest (a mix by frequency would be a benchmark of the
// five commonest words).
func BenchmarkPorter(b *testing.B) {
	docs, err := corpus.Scaled(corpus.WSJ88(), 0.05).Generate()
	if err != nil {
		b.Fatal(err)
	}
	stopped := analysis.Analyzer{Stoplist: analysis.InqueryStoplist()}
	freq := make(map[string]int)
	var toks []string
	for _, d := range docs {
		toks = stopped.AppendTokens(toks[:0], d.Text)
		for _, tok := range toks {
			freq[tok]++
		}
	}
	words := make([]string, 0, len(freq))
	for w := range freq {
		words = append(words, w)
	}
	slices.SortFunc(words, func(x, y string) int {
		if freq[x] != freq[y] {
			return freq[y] - freq[x]
		}
		return strings.Compare(x, y)
	})
	words = words[:200]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Porter(words[i%len(words)])
	}
}
