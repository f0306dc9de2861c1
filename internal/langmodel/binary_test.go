package langmodel

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	m := docModel("apple apple bear", "cat apple", "döner über") // non-ascii too
	var buf bytes.Buffer
	if _, err := m.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(got) {
		t.Error("binary round trip mismatch")
	}
}

func TestBinaryEmptyModel(t *testing.T) {
	m := New()
	var buf bytes.Buffer
	if _, err := m.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.VocabSize() != 0 || got.Docs() != 0 {
		t.Errorf("empty model round trip: %v", got)
	}
}

func TestBinaryDeterministic(t *testing.T) {
	m := docModel("zeta alpha mid", "alpha beta")
	var a, b bytes.Buffer
	if _, err := m.WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("binary encoding not deterministic")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"QBLM",              // truncated magic
		"XXXXX",             // wrong magic
		"QBLM1",             // no body
		"QBLM1\x01",         // truncated term count
		"QBLM1\x01\x01\xff", // truncated term
	}
	for _, c := range cases {
		if _, err := ReadBinary(strings.NewReader(c)); err == nil {
			t.Errorf("garbage %q accepted", c)
		}
	}
}

// qblm1 handcrafts a QBLM1 file of one document holding the given terms in
// the given order, each with df 1 and ctf 1.
func qblm1(terms ...string) []byte {
	buf := append([]byte("QBLM1"), 1, byte(len(terms)))
	for _, term := range terms {
		buf = append(buf, byte(len(term)))
		buf = append(buf, term...)
		buf = append(buf, 1, 1)
	}
	return buf
}

func TestBinaryRejectsDuplicateTerms(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(qblm1("abc", "abc"))); err == nil {
		t.Error("duplicate term accepted")
	}
}

// TestBinaryRejectsUnsortedTerms: QBLM1 files list terms in ascending
// order, and the order a file is read in is the model's TermAt order, so a
// file in any other order would load as a model its own re-save does not
// reproduce.
func TestBinaryRejectsUnsortedTerms(t *testing.T) {
	for _, terms := range [][]string{{"b", "a"}, {"a", "c", "b"}, {"ab", "a"}, {"a", "", "b"}} {
		if _, err := ReadBinary(bytes.NewReader(qblm1(terms...))); err == nil || !strings.Contains(err.Error(), "does not sort after") {
			t.Errorf("terms %q: err = %v, want an order error", terms, err)
		}
	}
	for _, terms := range [][]string{{"", "a"}, {"a", "ab", "b"}} {
		if _, err := ReadBinary(bytes.NewReader(qblm1(terms...))); err != nil {
			t.Errorf("sorted terms %q refused: %v", terms, err)
		}
	}
}

// A header is only a claim: 2^28 terms over a 20-byte body must fail on the
// missing bytes, having allocated for maxBinaryPresize terms at most.
func TestBinaryForgedCountFailsFast(t *testing.T) {
	payload := append([]byte("QBLM1"), 1) // docs
	payload = binary.AppendUvarint(payload, maxBinaryTerms)
	payload = append(payload, 3, 'a', 'b', 'c', 1, 1)
	for len(payload) < len("QBLM1")+1+4+20 {
		payload = append(payload, 0xff) // an unterminated uvarint
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(payload))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged term count accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("ReadBinary allocated %d bytes on a forged header, want under 1 MiB", got)
	}
	if _, err := ReadBinary(bytes.NewReader(binary.AppendUvarint(append([]byte("QBLM1"), 1), maxBinaryTerms+1))); err == nil {
		t.Error("term count above maxBinaryTerms accepted")
	}
}

// ReadBinary builds the model directly instead of through bump; it must
// leave what bump would have: file order as first-seen order (Fingerprint and
// every sampler draw read it), one version tick per term and the ctf total.
// 5000 terms is past maxBinaryPresize, so the stats also grow beyond their
// hint here, and must still end at their exact size.
func TestBinaryReadMatchesIncrementalBuild(t *testing.T) {
	const terms = 5000
	src, want := New(), New()
	for i := terms - 1; i >= 0; i-- {
		src.AddTerm(fmt.Sprintf("w%04d", i), TermStats{DF: i%100 + 1, CTF: int64(i%500 + 1)})
	}
	src.SetDocs(777)
	var buf bytes.Buffer
	if _, err := src.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	got, err := ReadBinary(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range src.Vocabulary() {
		st, _ := src.Stats(tm)
		want.AddTerm(tm, st)
	}
	want.SetDocs(777)
	if !got.Equal(want) || got.TotalCTF() != want.TotalCTF() || got.Fingerprint() != want.Fingerprint() {
		t.Fatal("decoded model differs from the same terms added one by one")
	}
	for i := 0; i < terms; i++ {
		if got.TermAt(i) != want.TermAt(i) {
			t.Fatalf("TermAt(%d) = %q, want %q", i, got.TermAt(i), want.TermAt(i))
		}
	}
	if got.version != terms {
		t.Errorf("version = %d, want one tick per term (%d)", got.version, terms)
	}
	if cap(got.order) != terms || cap(got.stats) != terms || len(got.index) != indexSize(terms) {
		t.Errorf("order cap %d, stats cap %d, index %d slots for %d terms", cap(got.order), cap(got.stats), len(got.index), terms)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Errorf("ReadBinary made %.0f allocations for %d terms, want a few dozen, not one per term", allocs, terms)
	}
}

func TestBinaryQuickRoundTrip(t *testing.T) {
	if err := quick.Check(func(words [6]uint16, dfs [6]uint8) bool {
		m := New()
		for i := range words {
			m.AddTerm(term(int(words[i])), TermStats{DF: int(dfs[i]) + 1, CTF: int64(dfs[i]) + 2})
		}
		var buf bytes.Buffer
		if _, err := m.WriteBinary(&buf); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		return err == nil && got.Equal(m)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func FuzzReadBinary(f *testing.F) {
	m := docModel("seed words here", "more seed text")
	var buf bytes.Buffer
	if _, err := m.WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("QBLM1"))
	f.Add([]byte{})
	f.Add(binary.AppendUvarint(append([]byte("QBLM1\x01\x01\x01x"), 1), 1<<63))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var sum int64
		got.Range(func(term string, st TermStats) bool {
			if st.DF < 0 || st.CTF < 0 {
				t.Fatalf("negative stats survived decode: %q %+v", term, st)
			}
			sum += st.CTF
			return true
		})
		if sum != got.TotalCTF() {
			t.Fatal("decoded model violates ctf invariant")
		}
		if got.Docs() < 0 {
			t.Fatalf("negative document count %d survived decode", got.Docs())
		}
	})
}

func BenchmarkWriteBinary(b *testing.B) {
	m := New()
	for i := 0; i < 10000; i++ {
		m.AddTerm(term(i)+"x", TermStats{DF: i%100 + 1, CTF: int64(i%500 + 1)})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := m.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBinary(b *testing.B) {
	m := New()
	for i := 0; i < 10000; i++ {
		m.AddTerm(term(i)+"x", TermStats{DF: i%100 + 1, CTF: int64(i%500 + 1)})
	}
	var buf bytes.Buffer
	if _, err := m.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
