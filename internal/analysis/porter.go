package analysis

// stemStack is the size of the stemmer's on-stack working copy. Index terms
// of the generated corpora are under twenty bytes; a longer token (a fuzzer's
// run of letters, a URL squeezed into one token) borrows a pooled buffer.
const stemStack = 64

// Porter implements the classic Porter stemming algorithm
// (M.F. Porter, "An algorithm for suffix stripping", Program 14(3), 1980).
// The paper's actual language models are stemmed database indexes (§4.1),
// so learned vocabularies are stemmed before comparison; this is the exact
// published algorithm, not a variant.
//
// The input must already be lower-cased (Tokenize guarantees this). Words of
// length <= 2 are returned unchanged, per the original definition.
//
// The stemmer is a kernel in the shape of Porter's reference implementation:
// the word is copied once into a stack buffer and shortened there through an
// end index, and steps 2 and 4 pick their candidate suffixes by the
// penultimate byte (step 3 by the last) instead of trying every suffix in
// turn. Stripping s, ed, ing, ness, ment and their like leaves a prefix of
// the input, and then the result is word[:k]: no allocation, but a string
// that aliases the argument. Only a stem some rule rewrote (happy → happi,
// filing → file) is a new string. The result never aliases the working copy.
// A caller that keeps the stem longer than the text the word was cut from
// falls under AppendTokens' rule and must strings.Clone it.
func Porter(word string) string {
	if len(word) <= 2 {
		return word
	}
	var stack [stemStack]byte
	z := stemmer{b: stack[:], k: len(word)}
	var pooled *[]byte
	if len(word) > len(stack) {
		pooled = tokenBufPool.Get().(*[]byte)
		*pooled = append((*pooled)[:0], word...)
		z.b = *pooled
	} else {
		copy(z.b, word)
	}
	z.step1a()
	z.step1b()
	z.step1c()
	z.step2()
	z.step3()
	z.step4()
	z.step5()
	stem := word[:z.k]
	if string(z.b[:z.k]) != stem {
		stem = ownedToken(z.b[:z.k])
	}
	if pooled != nil {
		tokenBufPool.Put(pooled)
	}
	return stem
}

// stemmer is the word being stemmed: b[:k] is what is left of it, and j is
// the length of the stem in front of the suffix ends matched last.
type stemmer struct {
	b    []byte
	k, j int
}

// cons reports whether b[i] is a consonant in Porter's sense: a letter
// other than a, e, i, o, u, and other than y preceded by a consonant.
func (z *stemmer) cons(i int) bool {
	switch z.b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		return i == 0 || !z.cons(i-1)
	}
	return true
}

// measure returns m, the number of VC sequences in [C](VC)^m[V] over
// b[:j], in one forward pass: a y is a vowel exactly when the byte before
// it was a consonant, so the class of each byte follows from the last.
func (z *stemmer) measure(j int) int {
	m := 0
	vowel := false // the class of the byte before
	for i, c := range z.b[:j] {
		v := false
		switch c {
		case 'a', 'e', 'i', 'o', 'u':
			v = true
		case 'y':
			v = i > 0 && !vowel
		}
		if vowel && !v {
			m++
		}
		vowel = v
	}
	return m
}

// hasVowel reports whether b[:j] contains a vowel. Up to the first vowel
// every byte is a consonant, so a y anywhere but in front is one.
func (z *stemmer) hasVowel(j int) bool {
	for i, c := range z.b[:j] {
		switch c {
		case 'a', 'e', 'i', 'o', 'u':
			return true
		case 'y':
			if i > 0 {
				return true
			}
		}
	}
	return false
}

// doubleCons reports whether b[:k] ends in a double consonant (*d).
func (z *stemmer) doubleCons(k int) bool {
	return k >= 2 && z.b[k-1] == z.b[k-2] && z.cons(k-1)
}

// cvc reports whether b[:k] ends consonant-vowel-consonant where the final
// consonant is not w, x, or y (*o). Used to decide when to restore a
// trailing e.
func (z *stemmer) cvc(k int) bool {
	if k < 3 || !z.cons(k-1) || z.cons(k-2) || !z.cons(k-3) {
		return false
	}
	switch z.b[k-1] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

// ends reports whether b[:k] ends in s, and if so leaves the length of the
// stem before it in j.
func (z *stemmer) ends(s string) bool {
	if len(s) > z.k || string(z.b[z.k-len(s):z.k]) != s {
		return false
	}
	z.j = z.k - len(s)
	return true
}

// setTo replaces the suffix ends matched with s. No rule's replacement is
// longer than what the rules before it took off, so the word never outgrows
// its buffer.
func (z *stemmer) setTo(s string) {
	z.k = z.j + copy(z.b[z.j:], s)
}

// replace is setTo under the condition steps 2 and 3 put on every rule,
// m(stem) > 0.
func (z *stemmer) replace(s string) {
	if z.measure(z.j) > 0 {
		z.setTo(s)
	}
}

// step1a removes plurals: sses → ss, ies → i, ss → ss, s → .
func (z *stemmer) step1a() {
	if z.b[z.k-1] != 's' {
		return
	}
	switch {
	case z.ends("sses"):
		z.k -= 2
	case z.ends("ies"):
		z.setTo("i")
	case z.b[z.k-2] != 's':
		z.k--
	}
}

// step1b removes ed and ing from a stem with a vowel (and turns eed into
// ee after m > 0), then tidies what is left: at, bl, iz get their e back, a
// double consonant other than l, s, z loses one, and a short cvc stem gains
// an e.
func (z *stemmer) step1b() {
	if z.ends("eed") {
		if z.measure(z.j) > 0 {
			z.k--
		}
		return
	}
	if !(z.ends("ed") || z.ends("ing")) || !z.hasVowel(z.j) {
		return
	}
	z.k = z.j
	switch {
	case z.ends("at"):
		z.setTo("ate")
	case z.ends("bl"):
		z.setTo("ble")
	case z.ends("iz"):
		z.setTo("ize")
	case z.doubleCons(z.k):
		switch z.b[z.k-1] {
		case 'l', 's', 'z':
			// keep the double consonant
		default:
			z.k--
		}
	case z.measure(z.k) == 1 && z.cvc(z.k):
		z.b[z.k] = 'e'
		z.k++
	}
}

// step1c turns a final y into i when the stem has a vowel.
func (z *stemmer) step1c() {
	if z.b[z.k-1] == 'y' && z.hasVowel(z.k-1) {
		z.b[z.k-1] = 'i'
	}
}

// step2 maps double suffixes to single ones when m(stem) > 0. The first
// suffix that matches decides, whether or not its condition then holds; two
// suffixes can only both match a word that has the penultimate byte of
// both, so dispatching on it keeps the published order within each case.
func (z *stemmer) step2() {
	if z.k < 2 {
		return
	}
	switch z.b[z.k-2] {
	case 'a':
		switch {
		case z.ends("ational"):
			z.replace("ate")
		case z.ends("tional"):
			z.replace("tion")
		}
	case 'c':
		switch {
		case z.ends("enci"):
			z.replace("ence")
		case z.ends("anci"):
			z.replace("ance")
		}
	case 'e':
		if z.ends("izer") {
			z.replace("ize")
		}
	case 'l':
		switch {
		case z.ends("abli"):
			z.replace("able")
		case z.ends("alli"):
			z.replace("al")
		case z.ends("entli"):
			z.replace("ent")
		case z.ends("eli"):
			z.replace("e")
		case z.ends("ousli"):
			z.replace("ous")
		}
	case 'o':
		switch {
		case z.ends("ization"):
			z.replace("ize")
		case z.ends("ation"):
			z.replace("ate")
		case z.ends("ator"):
			z.replace("ate")
		}
	case 's':
		switch {
		case z.ends("alism"):
			z.replace("al")
		case z.ends("iveness"):
			z.replace("ive")
		case z.ends("fulness"):
			z.replace("ful")
		case z.ends("ousness"):
			z.replace("ous")
		}
	case 't':
		switch {
		case z.ends("aliti"):
			z.replace("al")
		case z.ends("iviti"):
			z.replace("ive")
		case z.ends("biliti"):
			z.replace("ble")
		}
	}
}

// step3 deals with ic, full, ness and the like, under the same condition
// and the same first-match rule as step2, dispatched on the last byte.
func (z *stemmer) step3() {
	switch z.b[z.k-1] {
	case 'e':
		switch {
		case z.ends("icate"):
			z.replace("ic")
		case z.ends("ative"):
			z.replace("")
		case z.ends("alize"):
			z.replace("al")
		}
	case 'i':
		if z.ends("iciti") {
			z.replace("ic")
		}
	case 'l':
		switch {
		case z.ends("ical"):
			z.replace("ic")
		case z.ends("ful"):
			z.replace("")
		}
	case 's':
		if z.ends("ness") {
			z.replace("")
		}
	}
}

// step4 takes off ant, ence and the like when m(stem) > 1 (ion only after
// s or t), the first matching suffix again deciding alone.
func (z *stemmer) step4() {
	if z.k < 2 {
		return
	}
	matched := false
	switch z.b[z.k-2] {
	case 'a':
		matched = z.ends("al")
	case 'c':
		matched = z.ends("ance") || z.ends("ence")
	case 'e':
		matched = z.ends("er")
	case 'i':
		matched = z.ends("ic")
	case 'l':
		matched = z.ends("able") || z.ends("ible")
	case 'n':
		matched = z.ends("ant") || z.ends("ement") || z.ends("ment") || z.ends("ent")
	case 'o':
		if z.ends("ion") {
			matched = z.j > 0 && (z.b[z.j-1] == 's' || z.b[z.j-1] == 't')
		} else {
			matched = z.ends("ou")
		}
	case 's':
		matched = z.ends("ism")
	case 't':
		matched = z.ends("ate") || z.ends("iti")
	case 'u':
		matched = z.ends("ous")
	case 'v':
		matched = z.ends("ive")
	case 'z':
		matched = z.ends("ize")
	}
	if matched && z.measure(z.j) > 1 {
		z.k = z.j
	}
}

// step5 removes a final e when m > 1, or when m = 1 and the stem does not
// end cvc, and then turns a final ll into l when m > 1.
func (z *stemmer) step5() {
	if z.b[z.k-1] == 'e' {
		if m := z.measure(z.k - 1); m > 1 || m == 1 && !z.cvc(z.k-1) {
			z.k--
		}
	}
	if z.b[z.k-1] == 'l' && z.doubleCons(z.k) && z.measure(z.k) > 1 {
		z.k--
	}
}
