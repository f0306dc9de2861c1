package analysis

// PorterRef exports the reference stemmer to the external test package,
// which can import internal/corpus where this package cannot.
var PorterRef = porterRef

// PorterWords exports the words of Porter's published vectors, one or more
// for every rule of steps 1a-5b.
var PorterWords = func() []string {
	words := make([]string, len(porterVectors))
	for i, v := range porterVectors {
		words[i] = v.in
	}
	return words
}()

// RaceEnabled exports raceEnabled to the external test package.
const RaceEnabled = raceEnabled
