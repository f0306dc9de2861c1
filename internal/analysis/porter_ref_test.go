package analysis

// porterRef is the stemmer Porter was until it became a kernel, moved here
// unchanged but for its names: one heap copy of the word, every suffix of
// steps 2-4 tried in list order, and a fresh string for the result. It is
// the oracle TestPorterMatchesReference and FuzzPorter hold Porter to.
func porterRef(word string) string {
	if len(word) <= 2 {
		return word
	}
	w := refWord{b: []byte(word)}
	w.step1a()
	w.step1b()
	w.step1c()
	w.step2()
	w.step3()
	w.step4()
	w.step5a()
	w.step5b()
	return string(w.b)
}

type refWord struct {
	b []byte
}

// isCons reports whether b[i] is a consonant in Porter's sense: a letter
// other than a, e, i, o, u, and other than y preceded by a consonant.
func (w *refWord) isCons(i int) bool {
	switch w.b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !w.isCons(i - 1)
	}
	return true
}

// measure returns m, the number of VC sequences in [C](VC)^m[V] over the
// first k bytes of the word.
func (w *refWord) measure(k int) int {
	n := 0
	i := 0
	for i < k && w.isCons(i) {
		i++
	}
	for {
		for i < k && !w.isCons(i) {
			i++
		}
		if i >= k {
			return n
		}
		n++
		for i < k && w.isCons(i) {
			i++
		}
		if i >= k {
			return n
		}
	}
}

// hasVowel reports whether the first k bytes contain a vowel.
func (w *refWord) hasVowel(k int) bool {
	for i := 0; i < k; i++ {
		if !w.isCons(i) {
			return true
		}
	}
	return false
}

// doubleCons reports whether the word (of length k) ends in a double
// consonant (*d).
func (w *refWord) doubleCons(k int) bool {
	if k < 2 {
		return false
	}
	return w.b[k-1] == w.b[k-2] && w.isCons(k-1)
}

// cvc reports whether the last three letters of the k-prefix are
// consonant-vowel-consonant where the final consonant is not w, x, or y
// (*o). Used to decide when to restore a trailing e.
func (w *refWord) cvc(k int) bool {
	if k < 3 {
		return false
	}
	if !w.isCons(k-1) || w.isCons(k-2) || !w.isCons(k-3) {
		return false
	}
	switch w.b[k-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func (w *refWord) hasSuffix(s string) bool {
	n := len(w.b)
	return n >= len(s) && string(w.b[n-len(s):]) == s
}

// stemLen returns the length of the stem if suffix s were removed.
func (w *refWord) stemLen(s string) int {
	return len(w.b) - len(s)
}

// replace removes suffix s and appends r.
func (w *refWord) replace(s, r string) {
	w.b = append(w.b[:len(w.b)-len(s)], r...)
}

func (w *refWord) step1a() {
	switch {
	case w.hasSuffix("sses"):
		w.replace("sses", "ss")
	case w.hasSuffix("ies"):
		w.replace("ies", "i")
	case w.hasSuffix("ss"):
		// unchanged
	case w.hasSuffix("s"):
		w.replace("s", "")
	}
}

func (w *refWord) step1b() {
	if w.hasSuffix("eed") {
		if w.measure(w.stemLen("eed")) > 0 {
			w.replace("eed", "ee")
		}
		return
	}
	stripped := false
	if w.hasSuffix("ed") && w.hasVowel(w.stemLen("ed")) {
		w.replace("ed", "")
		stripped = true
	} else if w.hasSuffix("ing") && w.hasVowel(w.stemLen("ing")) {
		w.replace("ing", "")
		stripped = true
	}
	if !stripped {
		return
	}
	switch {
	case w.hasSuffix("at"):
		w.replace("at", "ate")
	case w.hasSuffix("bl"):
		w.replace("bl", "ble")
	case w.hasSuffix("iz"):
		w.replace("iz", "ize")
	case w.doubleCons(len(w.b)):
		switch w.b[len(w.b)-1] {
		case 'l', 's', 'z':
			// keep the double consonant
		default:
			w.b = w.b[:len(w.b)-1]
		}
	case w.measure(len(w.b)) == 1 && w.cvc(len(w.b)):
		w.b = append(w.b, 'e')
	}
}

func (w *refWord) step1c() {
	if w.hasSuffix("y") && w.hasVowel(w.stemLen("y")) {
		w.b[len(w.b)-1] = 'i'
	}
}

// step2 rules, tried in order; condition is m(stem) > 0.
var refStep2Rules = []struct{ suf, rep string }{
	{"ational", "ate"},
	{"tional", "tion"},
	{"enci", "ence"},
	{"anci", "ance"},
	{"izer", "ize"},
	{"abli", "able"},
	{"alli", "al"},
	{"entli", "ent"},
	{"eli", "e"},
	{"ousli", "ous"},
	{"ization", "ize"},
	{"ation", "ate"},
	{"ator", "ate"},
	{"alism", "al"},
	{"iveness", "ive"},
	{"fulness", "ful"},
	{"ousness", "ous"},
	{"aliti", "al"},
	{"iviti", "ive"},
	{"biliti", "ble"},
}

func (w *refWord) step2() {
	for _, r := range refStep2Rules {
		if w.hasSuffix(r.suf) {
			if w.measure(w.stemLen(r.suf)) > 0 {
				w.replace(r.suf, r.rep)
			}
			return
		}
	}
}

var refStep3Rules = []struct{ suf, rep string }{
	{"icate", "ic"},
	{"ative", ""},
	{"alize", "al"},
	{"iciti", "ic"},
	{"ical", "ic"},
	{"ful", ""},
	{"ness", ""},
}

func (w *refWord) step3() {
	for _, r := range refStep3Rules {
		if w.hasSuffix(r.suf) {
			if w.measure(w.stemLen(r.suf)) > 0 {
				w.replace(r.suf, r.rep)
			}
			return
		}
	}
}

var refStep4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func (w *refWord) step4() {
	for _, suf := range refStep4Suffixes {
		if !w.hasSuffix(suf) {
			continue
		}
		k := w.stemLen(suf)
		if w.measure(k) <= 1 {
			return
		}
		if suf == "ion" && k > 0 && w.b[k-1] != 's' && w.b[k-1] != 't' {
			return
		}
		w.replace(suf, "")
		return
	}
}

func (w *refWord) step5a() {
	if !w.hasSuffix("e") {
		return
	}
	k := w.stemLen("e")
	m := w.measure(k)
	if m > 1 || (m == 1 && !w.cvc(k)) {
		w.replace("e", "")
	}
}

func (w *refWord) step5b() {
	k := len(w.b)
	if w.measure(k) > 1 && w.doubleCons(k) && w.b[k-1] == 'l' {
		w.b = w.b[:k-1]
	}
}
