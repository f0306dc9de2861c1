package analysis

import "strings"

// Stoplist is a set of words excluded from indexing. The zero value is an
// empty (pass-everything) list.
type Stoplist struct {
	words map[string]bool
}

// NewStoplist builds a Stoplist from the given words (already lower-case).
func NewStoplist(words []string) *Stoplist {
	m := make(map[string]bool, len(words))
	for _, w := range words {
		m[w] = true
	}
	return &Stoplist{words: m}
}

// Contains reports whether tok is a stopword.
func (s *Stoplist) Contains(tok string) bool {
	if s == nil || s.words == nil {
		return false
	}
	return s.words[tok]
}

// Len returns the number of distinct stopwords.
func (s *Stoplist) Len() int {
	if s == nil {
		return 0
	}
	return len(s.words)
}

// InqueryStoplist returns the default stoplist used by every database in the
// experiments. The paper's databases used InQuery's default list of 418
// "very frequent and/or closed-class words" (§4.1); this list reproduces its
// size and coverage (articles, prepositions, pronouns, auxiliaries,
// conjunctions, and very frequent adverbs/quantifiers).
func InqueryStoplist() *Stoplist {
	return NewStoplist(inqueryWords())
}

func inqueryWords() []string {
	return strings.Fields(inqueryStopwords)
}

// 418 words, whitespace-separated. Verified by TestInqueryStoplistSize.
const inqueryStopwords = `
a about above according across after afterwards again against albeit all
almost alone along already also although always am among amongst an and
another any anybody anyhow anyone anything anyway anywhere apart are around
as at av be became because become becomes becoming been before beforehand
behind being below beside besides between beyond both but by can cannot
canst certain cf choose contrariwise cos could cu day do does doesn doing
dost doth double down dual during each either else elsewhere enough et etc
even ever every everybody everyone everything everywhere except excepted
excepting exception exclude excluding exclusive far farther farthest few ff
first for formerly forth forward from front further furthermore furthest
get go had halves hardly has hast hath have he hence henceforth her here
hereabouts hereafter hereby herein hereto hereupon hers herself him himself
hindmost his hither hitherto how however howsoever i ie if in inasmuch inc
include included including indeed indoors inside insomuch instead into
inward inwards is it its itself just kind kg km last latter latterly less
lest let like little ltd many may maybe me meantime meanwhile might
moreover most mostly more mr mrs ms much must my myself namely need neither
never nevertheless next no nobody none nonetheless noone nope nor not
nothing notwithstanding now nowadays nowhere of off often ok on once one
only onto or other others otherwise ought our ours ourselves out outside
over own per perhaps plenty provide quite rather really round said sake
same sang save saw see seeing seem seemed seeming seems seen seldom
selves sent several shalt she should shown sideways since slept slew slung
slunk smote so some somebody somehow someone something sometime sometimes
somewhat somewhere spake spat spoke spoken sprang sprung stave staves still
such supposing than that the thee their them themselves then thence
thenceforth there thereabout thereabouts thereafter thereby therefore
therein thereof thereon thereto thereupon these they this those thou though
thrice through throughout thru thus thy thyself till to together too
toward towards ugh unable under underneath unless unlike until up upon
upward upwards us use used using very via vs want was we week well were
what whatever whatsoever when whence whenever whensoever where whereabouts
whereafter whereas whereat whereby wherefore wherefrom wherein whereinto
whereof whereon wheresoever whereto whereunto whereupon wherever wherewith
whether whew which whichever whichsoever while whilst whither who whoa
whoever whole whom whomever whomsoever whose whosoever why will wilt with
within without worse worst would wow ye yet year yippee you your yours
yourself yourselves
`
