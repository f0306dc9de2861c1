package langmodel

import "encoding/binary"

// Fingerprint returns a 64-bit content hash of the model: the corpus-level
// counts plus every (term, df, ctf) triple. Per-term hashes are combined
// by XOR, so the fingerprint is independent of insertion order — a model
// built by sampling and the same model read back from disk (which inserts
// in sorted order) fingerprint identically.
//
// It is a model's identity in checks that two paths learned the same
// statistics — a model sampled over the wire and one sampled in process, a
// model before and after a store round trip — an integrity check against
// accidents, not an adversary-proof digest.
func (m *Model) Fingerprint() uint64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	var buf [8]byte
	mix := func(h uint64, v uint64) uint64 {
		binary.LittleEndian.PutUint64(buf[:], v)
		for _, b := range buf {
			h ^= uint64(b)
			h *= prime64
		}
		return h
	}
	hashString := func(s string) uint64 {
		h := uint64(offset64)
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		return h
	}
	h := uint64(offset64)
	h = mix(h, uint64(m.docs))
	h = mix(h, uint64(m.totalCTF))
	h = mix(h, uint64(m.VocabSize()))
	var terms uint64
	m.Range(func(t string, st TermStats) bool {
		th := hashString(t)
		th = mix(th, uint64(st.DF))
		th = mix(th, uint64(st.CTF))
		terms ^= th
		return true
	})
	return h ^ terms
}
