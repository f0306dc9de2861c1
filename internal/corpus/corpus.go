// Package corpus provides the synthetic full-text corpora that stand in for
// the paper's test collections (CACM, WSJ88, TREC-123, and the Microsoft
// Customer Support database of §7).
//
// We do not have the original collections, but every result in the paper is
// a function of term-frequency *structure* — Zipf-distributed term
// frequencies, Heaps-law vocabulary growth, document-length skew, and
// topical (in)homogeneity — not of English semantics. The generator
// reproduces that structure: documents draw tokens from a mixture of a
// shared Zipfian vocabulary (whose head is real English function words, so
// stopword processing is meaningful) and a per-topic Zipfian vocabulary
// (disjoint across topics, so heterogeneous corpora have genuinely distinct
// sub-languages). Morphological suffixes are attached stochastically so that
// stemming merges variants, as it does in real text.
package corpus

import (
	"fmt"
	"strings"

	"repro/internal/randx"
)

// Document is a retrievable full-text item. The sampler sees only Text (and
// Title); Topic is generator metadata used by tests.
type Document struct {
	ID    int
	Title string
	Text  string
	Topic int
}

// TopicSpec describes one topical sub-language of a corpus.
type TopicSpec struct {
	// Name labels the topic (appears in document titles).
	Name string
	// VocabSize is the number of distinct topic-specific terms available.
	VocabSize int
	// Weight is the relative probability a document is about this topic.
	Weight float64
	// SeedWords, if non-empty, occupy the most frequent ranks of the topic
	// vocabulary. The Support profile seeds the §7 product terms this way.
	SeedWords []string
}

// Profile is a reproducible recipe for a synthetic corpus.
type Profile struct {
	// Name identifies the profile in reports (Table 1 rows).
	Name string
	// Docs is the number of documents to generate.
	Docs int
	// SharedVocabSize is the size of the corpus-wide shared vocabulary. Its
	// most frequent ranks are real English function words.
	SharedVocabSize int
	// SharedProb is the probability that a token is drawn from the shared
	// vocabulary rather than the document's topic vocabulary.
	SharedProb float64
	// Topics lists the topical sub-languages; one topic per document.
	Topics []TopicSpec
	// DocLenMu and DocLenSigma parameterize the log-normal distribution of
	// document token counts; MinDocLen clamps the left tail.
	DocLenMu, DocLenSigma float64
	MinDocLen             int
	// ZipfS and ZipfV parameterize term-frequency skew (exponent and
	// Mandelbrot shift) for both shared and topic vocabularies.
	ZipfS, ZipfV float64
	// MorphProb is the probability a generated token carries an inflectional
	// suffix (-s, -ed, -ing, ...), giving the stemmer real work.
	MorphProb float64
	// Burstiness models word adaptation in real text: a word that occurs
	// once in a document is likely to recur (Church & Gale). It is the
	// mean number of occurrences per distinct word within a document;
	// values <= 1 disable it (every token drawn independently). Real prose
	// sits around 1.5–3.
	Burstiness float64
	// Seed makes generation fully deterministic.
	Seed uint64
}

// Validate reports the first problem with the profile, or nil.
func (p Profile) Validate() error {
	switch {
	case p.Docs <= 0:
		return fmt.Errorf("corpus %q: Docs must be positive, got %d", p.Name, p.Docs)
	case p.SharedVocabSize <= 0:
		return fmt.Errorf("corpus %q: SharedVocabSize must be positive", p.Name)
	case len(p.Topics) == 0:
		return fmt.Errorf("corpus %q: need at least one topic", p.Name)
	case p.SharedProb < 0 || p.SharedProb > 1:
		return fmt.Errorf("corpus %q: SharedProb %f outside [0,1]", p.Name, p.SharedProb)
	case p.ZipfS <= 1 || p.ZipfV < 1:
		return fmt.Errorf("corpus %q: Zipf parameters require S > 1, V >= 1", p.Name)
	}
	total := 0.0
	for i, t := range p.Topics {
		if t.VocabSize <= 0 {
			return fmt.Errorf("corpus %q: topic %d has non-positive vocabulary", p.Name, i)
		}
		if t.Weight <= 0 {
			return fmt.Errorf("corpus %q: topic %d has non-positive weight", p.Name, i)
		}
		total += t.Weight
	}
	if total <= 0 {
		return fmt.Errorf("corpus %q: topic weights sum to zero", p.Name)
	}
	return nil
}

// Scaled returns a copy of p with document count multiplied by f (minimum 1
// document). Vocabulary sizes are left alone: a sample of a collection sees
// the same underlying language.
func Scaled(p Profile, f float64) Profile {
	p.Docs = int(float64(p.Docs) * f)
	if p.Docs < 1 {
		p.Docs = 1
	}
	return p
}

// Generate materializes the corpus. The same profile always yields the same
// documents.
func (p Profile) Generate() ([]Document, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	root := randx.New(p.Seed)

	shared := newVocab(sharedHead(), p.SharedVocabSize, "sx", 0)
	sharedZipf := randx.NewZipf(root.Fork(1), p.ZipfS, p.ZipfV, uint64(p.SharedVocabSize-1))

	topicVocabs := make([]*vocab, len(p.Topics))
	topicZipfs := make([]*randx.Zipf, len(p.Topics))
	cumWeights := make([]float64, len(p.Topics))
	sum := 0.0
	for i, t := range p.Topics {
		// Salt topical vocabularies by the topic *name*, so same-named
		// topics share a sub-language across corpora (CACM "computing"
		// overlaps TREC-123 "computing") while differently named topics
		// are vocabulary-disjoint even across independently generated
		// databases (the federation experiments rely on this).
		topicVocabs[i] = newVocab(t.SeedWords, t.VocabSize, "t", nameSalt(t.Name))
		topicZipfs[i] = randx.NewZipf(root.Fork(uint64(100+i)), p.ZipfS, p.ZipfV, uint64(t.VocabSize-1))
		sum += t.Weight
		cumWeights[i] = sum
	}

	docRng := root.Fork(2)
	lenRng := root.Fork(3)
	morphRng := root.Fork(4)

	docs := make([]Document, p.Docs)
	var buf []byte // each text is written here, then copied out at its size
	for d := 0; d < p.Docs; d++ {
		// Pick the document's topic by mixture weight.
		topic := len(p.Topics) - 1
		r := docRng.Float64() * sum
		for i, cw := range cumWeights {
			if r < cw {
				topic = i
				break
			}
		}
		n := int(lenRng.LogNormal(p.DocLenMu, p.DocLenSigma))
		if n < p.MinDocLen {
			n = p.MinDocLen
		}
		draw := func() token {
			var t token
			inflectable := true
			if docRng.Float64() < p.SharedProb {
				rank := int(sharedZipf.Uint64())
				t.word = shared.word(rank)
				// Function words (the shared head) do not inflect; "thes"
				// and "ofing" are not English.
				inflectable = rank >= len(shared.head)
			} else {
				rank := int(topicZipfs[topic].Uint64())
				t.word = topicVocabs[topic].word(rank)
				// Seeded head words (e.g. product names) do not inflect
				// either.
				inflectable = rank >= len(topicVocabs[topic].head)
			}
			if inflectable && p.MorphProb > 0 && morphRng.Float64() < p.MorphProb {
				t.suffix = suffixes[morphRng.Intn(len(suffixes))]
			}
			return t
		}
		buf = buf[:0]
		if p.Burstiness > 1 {
			// Two-stage (bursty) generation: pick the document's distinct
			// word types first, then spread the token budget over them.
			types := make([]token, 0, n)
			nTypes := int(float64(n)/p.Burstiness + 0.5)
			if nTypes < 1 {
				nTypes = 1
			}
			for len(types) < nTypes {
				types = append(types, draw())
			}
			for i := 0; i < n; i++ {
				buf = types[docRng.Intn(len(types))].appendTo(buf, i)
			}
		} else {
			for i := 0; i < n; i++ {
				buf = draw().appendTo(buf, i)
			}
		}
		docs[d] = Document{
			ID:    d,
			Title: fmt.Sprintf("%s document %d (%s)", p.Name, d, p.Topics[topic].Name),
			Text:  string(buf),
			Topic: topic,
		}
	}
	return docs, nil
}

// MustGenerate is Generate for profiles known valid at compile time (the
// built-in ones); it panics on error.
func (p Profile) MustGenerate() []Document {
	docs, err := p.Generate()
	if err != nil {
		panic(err)
	}
	return docs
}

var suffixes = []string{"s", "ed", "ing", "er", "ation"}

// token is one generated word and its inflectional suffix, if any.
type token struct{ word, suffix string }

func (t token) appendTo(buf []byte, i int) []byte {
	if i > 0 {
		buf = append(buf, ' ')
	}
	return append(append(buf, t.word...), t.suffix...)
}

// vocab maps a frequency rank to a term string. Ranks below len(head) are
// the given head words (function words for the shared vocabulary, seed words
// for topics); the rest are synthetic pseudo-words, distinct across vocabs
// via the salt.
type vocab struct {
	head  []string
	salt  uint64
	tag   string
	cache []string // lazily filled synthetic words
}

func newVocab(head []string, size int, tag string, salt uint64) *vocab {
	if len(head) > size {
		head = head[:size]
	}
	return &vocab{head: head, salt: salt, tag: tag, cache: make([]string, size)}
}

func (v *vocab) word(rank int) string {
	if rank < len(v.head) {
		return v.head[rank]
	}
	if v.cache[rank] == "" {
		v.cache[rank] = synthWord(v.tag, v.salt, rank)
	}
	return v.cache[rank]
}

// nameSalt hashes a topic name into a vocabulary salt (FNV-1a, folded to
// three salt syllables' worth of range — ~8M buckets, so distinct names
// collide with negligible probability).
func nameSalt(name string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	salt := h % 7999999
	if salt == 0 {
		salt = 1
	}
	return salt
}

// Consonant-vowel syllables give pronounceable, clearly synthetic words.
var (
	onsets = []string{
		"b", "c", "d", "f", "g", "h", "j", "k", "l", "m",
		"n", "p", "r", "s", "t", "v", "w", "z", "br", "cr",
		"dr", "fr", "gr", "pr", "tr", "bl", "cl", "fl", "gl", "pl",
		"sl", "sm", "sn", "sp", "st", "sk", "sh", "ch", "th", "wh",
	}
	nuclei = []string{"a", "e", "i", "o", "u"}
)

// synthWord deterministically encodes (salt, rank) as a pronounceable word.
// The encoding is injective for a fixed tag+salt, and the tag/salt prefix
// keeps vocabularies disjoint across topics.
func synthWord(tag string, salt uint64, rank int) string {
	nSyll := uint64(len(onsets) * len(nuclei))
	var b strings.Builder
	b.WriteString(tag)
	if salt > 0 {
		// Three salt syllables distinguish topics (salt < 200^3).
		for i, v := 0, salt; i < 3; i, v = i+1, v/nSyll {
			syl := v % nSyll
			b.WriteString(onsets[syl%uint64(len(onsets))])
			b.WriteString(nuclei[syl/uint64(len(onsets))])
		}
	}
	n := rank
	for {
		syl := n % (len(onsets) * len(nuclei))
		b.WriteString(onsets[syl%len(onsets)])
		b.WriteString(nuclei[syl/len(onsets)])
		n = n/(len(onsets)*len(nuclei)) - 1
		if n < 0 {
			break
		}
	}
	return b.String()
}

// sharedHead returns the real English function words that occupy the most
// frequent ranks of every shared vocabulary, ordered roughly by real-text
// frequency. Their presence makes stopword handling in the experiments
// meaningful (§4.1 discards InQuery's stopwords before comparisons).
func sharedHead() []string {
	return []string{
		"the", "of", "and", "to", "a", "in", "that", "is", "was", "he",
		"for", "it", "with", "as", "his", "on", "be", "at", "by", "had",
		"not", "are", "but", "from", "or", "have", "an", "they", "which",
		"one", "you", "were", "her", "all", "she", "there", "would",
		"their", "we", "him", "been", "has", "when", "who", "will", "more",
		"no", "if", "out", "so", "said", "what", "up", "its", "about",
		"into", "than", "them", "can", "only", "other", "new", "some",
		"could", "time", "these", "two", "may", "then", "do", "first",
		"any", "my", "now", "such", "like", "our", "over", "man", "me",
		"even", "most", "made", "after", "also", "did", "many", "before",
		"must", "through", "years", "where", "much", "your", "way", "well",
		"down", "should", "because", "each", "just", "those", "people",
		"how", "too", "little", "state", "good", "very", "make", "world",
		"still", "own", "see", "men", "work", "long", "get", "here",
		"between", "both", "life", "being", "under", "never", "day",
		"same", "another", "know", "while", "last", "might", "us", "great",
		"old", "year", "off", "come", "since", "against", "go", "came",
		"right", "used", "take", "three",
	}
}
