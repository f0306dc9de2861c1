package corpus

import "fmt"

// Built-in profiles reproduce the structure of the paper's test corpora
// (Table 1) at a default scale that keeps the full experiment suite
// runnable on one machine. Document counts scale with corpus.Scaled;
// `-scale 1` in cmd/experiments restores paper-size collections.
//
// The paper's corpora, for reference (Table 1):
//
//	CACM      2 MB    3,204 docs      homogeneous scientific abstracts
//	WSJ88   104 MB   39,904 docs      newspaper articles (one source)
//	TREC-123 3.2 GB 1,078,166 docs    heterogeneous: news, abstracts, gov docs
//
// Heterogeneity ordering (CACM < WSJ88 < TREC-123) and roughly 1.5 orders of
// magnitude size spread are preserved; those two properties drive every
// size-dependent result in the paper (§5, Figure 2, Table 2).

// DefaultWSJ88Scale and DefaultTREC123Scale are the document-count scale
// factors applied to the paper's corpus sizes by the default profiles.
const (
	DefaultWSJ88Scale   = 0.30  // 39,904 -> 11,971
	DefaultTREC123Scale = 0.045 // 1,078,166 -> 48,517
)

// CACM mirrors the small, homogeneous collection of scientific titles and
// abstracts: one topic, short documents, small vocabulary. Kept at full
// paper size (3,204 documents).
func CACM() Profile {
	return Profile{
		Name:            "CACM",
		Docs:            3204,
		SharedVocabSize: 2500,
		SharedProb:      0.55,
		Topics: []TopicSpec{
			{Name: "computing", VocabSize: 9000, Weight: 1},
		},
		DocLenMu:    4.36, // mean ~100 tokens: title + abstract
		DocLenSigma: 0.60,
		MinDocLen:   10,
		ZipfS:       1.35,
		ZipfV:       2,
		MorphProb:   0.18,
		Seed:        0xCAC0,
	}
}

// WSJ88 mirrors a medium newspaper collection: one publication, a handful of
// desks (topics), longer articles, medium vocabulary.
func WSJ88() Profile {
	return Profile{
		Name:            "WSJ88",
		Docs:            11971,
		SharedVocabSize: 6000,
		SharedProb:      0.50,
		Topics: []TopicSpec{
			{Name: "markets", VocabSize: 30000, Weight: 4},
			{Name: "politics", VocabSize: 30000, Weight: 3},
			{Name: "business", VocabSize: 30000, Weight: 3},
			{Name: "world", VocabSize: 30000, Weight: 2},
		},
		DocLenMu:    5.34, // mean ~250 tokens
		DocLenSigma: 0.60,
		MinDocLen:   30,
		ZipfS:       1.35,
		ZipfV:       2,
		MorphProb:   0.18,
		Seed:        0x5319,
	}
}

// TREC123 mirrors the large, heterogeneous TREC CD 1-3 collection:
// many distinct sources with disjoint topical sub-languages.
func TREC123() Profile {
	// TREC CDs 1-3 contain the Wall Street Journal, so four of the topics
	// are WSJ88's own (topic vocabularies are salted by name and therefore
	// shared across corpora with the same topic name) — that overlap is
	// what lets the paper draw "other language model" query terms from
	// TREC-123 when sampling WSJ88 (§5.2).
	topics := []TopicSpec{
		{Name: "markets", VocabSize: 30000, Weight: 3},
		{Name: "politics", VocabSize: 30000, Weight: 2},
		{Name: "business", VocabSize: 30000, Weight: 2},
		{Name: "world", VocabSize: 30000, Weight: 2},
		{Name: "newswire", VocabSize: 26000, Weight: 4},
		{Name: "federal-register", VocabSize: 26000, Weight: 4},
		{Name: "patents", VocabSize: 26000, Weight: 2},
		{Name: "abstracts", VocabSize: 26000, Weight: 3},
		{Name: "energy", VocabSize: 26000, Weight: 2},
		{Name: "medicine", VocabSize: 26000, Weight: 2},
		{Name: "computing", VocabSize: 26000, Weight: 2},
		{Name: "agriculture", VocabSize: 26000, Weight: 1},
	}
	return Profile{
		Name:            "TREC123",
		Docs:            48517,
		SharedVocabSize: 8000,
		SharedProb:      0.45,
		Topics:          topics,
		DocLenMu:        5.20, // mean ~220 tokens
		DocLenSigma:     0.65,
		MinDocLen:       20,
		ZipfS:           1.35,
		ZipfV:           2,
		MorphProb:       0.18,
		Seed:            0x73EC,
	}
}

// Support mirrors the Microsoft Customer Support database of §7: a
// single-domain technical knowledge base whose frequent content terms are
// the product names of Table 4 (seeded at the top topical ranks).
func Support() Profile {
	return Profile{
		Name:            "Support",
		Docs:            5000,
		SharedVocabSize: 4000,
		SharedProb:      0.45,
		Topics: []TopicSpec{
			{
				Name:      "support",
				VocabSize: 22000,
				Weight:    1,
				SeedWords: Table4Terms(),
			},
		},
		DocLenMu:    5.00, // mean ~165 tokens: KB articles
		DocLenSigma: 0.55,
		MinDocLen:   20,
		ZipfS:       1.35,
		ZipfV:       2,
		MorphProb:   0.10,
		Seed:        0x5077,
	}
}

// Table4Terms returns the 50 content terms the paper reports as the top
// avg-tf words of the sampled Microsoft Customer Support database (Table 4),
// in the paper's order.
func Table4Terms() []string {
	return []string{
		"project", "microsoft", "access", "set", "command",
		"excel", "object", "print", "application", "following",
		"office", "user", "data", "product", "windows",
		"works", "visual", "internet", "menu", "new",
		"server", "beta", "error", "text", "settings",
		"word", "service", "box", "software", "example",
		"table", "basic", "articles", "code", "version",
		"printer", "file", "setup", "name", "message",
		"foxpro", "nt", "mail", "system", "information",
		"database", "field", "users", "dialog", "select",
	}
}

// Profiles returns the three Table 1 corpora in paper order.
func Profiles() []Profile {
	return []Profile{CACM(), WSJ88(), TREC123()}
}

// ByName returns the built-in profile called name: "CACM", "WSJ88",
// "TREC123" or "Support".
func ByName(name string) (Profile, error) {
	for _, p := range append(Profiles(), Support()) {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("corpus: unknown corpus %q (want CACM, WSJ88, TREC123 or Support)", name)
}
