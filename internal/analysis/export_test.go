package analysis

// PorterRef exports the reference stemmer to the external test package,
// which can import internal/corpus where this package cannot.
var PorterRef = porterRef
