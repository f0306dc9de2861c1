package analysis

import (
	"strings"
	"testing"
	"testing/quick"
)

// Vectors from Porter's published description and the canonical
// voc/output test pairs distributed with the algorithm.
var porterVectors = []struct{ in, want string }{
	{"caresses", "caress"},
	{"ponies", "poni"},
	{"ties", "ti"},
	{"caress", "caress"},
	{"cats", "cat"},
	{"feed", "feed"},
	{"agreed", "agre"},
	{"plastered", "plaster"},
	{"bled", "bled"},
	{"motoring", "motor"},
	{"sing", "sing"},
	{"conflated", "conflat"},
	{"troubled", "troubl"},
	{"sized", "size"},
	{"hopping", "hop"},
	{"tanned", "tan"},
	{"falling", "fall"},
	{"hissing", "hiss"},
	{"fizzed", "fizz"},
	{"failing", "fail"},
	{"filing", "file"},
	{"happy", "happi"},
	{"sky", "sky"},
	{"relational", "relat"},
	{"conditional", "condit"},
	{"rational", "ration"},
	{"valenci", "valenc"},
	{"hesitanci", "hesit"},
	{"digitizer", "digit"},
	{"conformabli", "conform"},
	{"radicalli", "radic"},
	{"differentli", "differ"},
	{"vileli", "vile"},
	{"analogousli", "analog"},
	{"vietnamization", "vietnam"},
	{"predication", "predic"},
	{"operator", "oper"},
	{"feudalism", "feudal"},
	{"decisiveness", "decis"},
	{"hopefulness", "hope"},
	{"callousness", "callous"},
	{"formaliti", "formal"},
	{"sensitiviti", "sensit"},
	{"sensibiliti", "sensibl"},
	{"triplicate", "triplic"},
	{"formative", "form"},
	{"formalize", "formal"},
	{"electriciti", "electr"},
	{"electrical", "electr"},
	{"hopeful", "hope"},
	{"goodness", "good"},
	{"revival", "reviv"},
	{"allowance", "allow"},
	{"inference", "infer"},
	{"airliner", "airlin"},
	{"gyroscopic", "gyroscop"},
	{"adjustable", "adjust"},
	{"defensible", "defens"},
	{"irritant", "irrit"},
	{"replacement", "replac"},
	{"adjustment", "adjust"},
	{"dependent", "depend"},
	{"adoption", "adopt"},
	{"homologou", "homolog"},
	{"communism", "commun"},
	{"activate", "activ"},
	{"angulariti", "angular"},
	{"homologous", "homolog"},
	{"effective", "effect"},
	{"bowdlerize", "bowdler"},
	{"probate", "probat"},
	{"rate", "rate"},
	{"cease", "ceas"},
	{"controll", "control"},
	{"roll", "roll"},
	// General words.
	{"computer", "comput"},
	{"computers", "comput"},
	{"computation", "comput"},
	{"computing", "comput"},
	{"databases", "databas"},
	{"retrieval", "retriev"},
	{"sampling", "sampl"},
	{"selection", "select"},
	{"stemming", "stem"},
	{"documents", "document"},
	{"queries", "queri"},
	// Short words unchanged.
	{"a", "a"},
	{"is", "is"},
	{"be", "be"},
	{"", ""},
}

func TestPorterVectors(t *testing.T) {
	for _, v := range porterVectors {
		if got := Porter(v.in); got != v.want {
			t.Errorf("Porter(%q) = %q, want %q", v.in, got, v.want)
		}
	}
}

func TestPorterNeverGrows(t *testing.T) {
	// The stem plus restored 'e' can never exceed the input length.
	if err := quick.Check(func(s string) bool {
		w := strings.ToLower(s)
		// restrict to ascii letters to model tokenizer output
		var b strings.Builder
		for _, r := range w {
			if r >= 'a' && r <= 'z' {
				b.WriteRune(r)
			}
		}
		w = b.String()
		return len(Porter(w)) <= len(w)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPorterDeterministic(t *testing.T) {
	words := []string{"generalization", "running", "flies", "agreement", "xyzzies"}
	for _, w := range words {
		if Porter(w) != Porter(w) {
			t.Fatalf("Porter(%q) not deterministic", w)
		}
	}
}

func TestPorterMergesInflections(t *testing.T) {
	// The property the experiments rely on: morphological variants of a
	// stem map to the same index term.
	groups := [][]string{
		{"connect", "connected", "connecting", "connection", "connections"},
		{"sample", "samples", "sampled"},
		{"index", "indexes", "indexing"},
	}
	for _, g := range groups {
		want := Porter(g[0])
		for _, w := range g[1:] {
			if got := Porter(w); got != want {
				t.Errorf("Porter(%q) = %q, want %q (same stem as %q)", w, got, want, g[0])
			}
		}
	}
}
