package langmodel

import (
	"strings"
	"testing"
	"unsafe"
)

// FuzzAddDocument holds AddDocument to addDocumentRef, the fold it
// replaced. The input is a run of documents, one per line, each a list of
// space-separated tokens: adjacent spaces make an empty token, an empty
// line a document without tokens, and a line starting with '|' takes a
// Snapshot of both models before it is folded. Both models start from the
// same vocabulary, so a document mixes terms the model already has, terms
// new to it and repeats of either. After every fold the two must be Equal,
// list their terms in the same order and fingerprint alike, and every
// snapshot must still match its twin at the end. No term of the model may
// be a view of the input text.
func FuzzAddDocument(f *testing.F) {
	for _, s := range []string{
		"b a b c a b",
		"alpha beta alpha\n\nbeta  gamma gamma\n|delta alpha delta\nepsilon",
		"|\n|a\n| a a  a\nzeta zeta\n|zeta eta",
		"the of the\n|\n|\n|\n|\n|\n|\n|\n|\n|the new",
		"  ",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		got, want := New(), New()
		known := strings.Fields("alpha beta gamma the of")
		got.AddDocument(known)
		addDocumentRef(want, known)
		var snaps [][2]*Model
		for _, line := range strings.Split(text, "\n") {
			if rest, ok := strings.CutPrefix(line, "|"); ok {
				snaps = append(snaps, [2]*Model{got.Snapshot(), want.Snapshot()})
				line = rest
			}
			var tokens []string
			if line != "" {
				tokens = strings.Split(line, " ")
			}
			got.AddDocument(tokens)
			addDocumentRef(want, tokens)
			sameFold(t, got, want)
		}
		for _, s := range snaps {
			sameFold(t, s[0], s[1])
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(text)))
		hi := lo + uintptr(len(text))
		for i := 0; i < got.VocabSize(); i++ {
			term := got.TermAt(i)
			if p := uintptr(unsafe.Pointer(unsafe.StringData(term))); term != "" && p >= lo && p < hi {
				t.Fatalf("term %q is a view of the input text", term)
			}
		}
	})
}

// sameFold fails the test unless got and want hold the same statistics,
// list their vocabularies in the same order and fingerprint alike.
func sameFold(t *testing.T, got, want *Model) {
	t.Helper()
	if !got.Equal(want) || got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("fold diverged from the reference: %v, want %v", got, want)
	}
	for i := 0; i < want.VocabSize(); i++ {
		if got.TermAt(i) != want.TermAt(i) {
			t.Fatalf("term %d is %q, want %q", i, got.TermAt(i), want.TermAt(i))
		}
	}
}
