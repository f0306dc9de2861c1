package selection

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/langmodel"
	"repro/internal/randx"
)

// goldenModels is the tiny fixed federation behind the golden-bytes test:
// two databases, overlapping vocabulary, deterministic insertion order.
func goldenModels() []*langmodel.Model {
	a := langmodel.New()
	a.SetDocs(10)
	a.AddTerm("apple", langmodel.TermStats{DF: 4, CTF: 9})
	a.AddTerm("stock", langmodel.TermStats{DF: 2, CTF: 3})
	b := langmodel.New()
	b.SetDocs(5)
	b.AddTerm("stock", langmodel.TermStats{DF: 5, CTF: 12})
	b.AddTerm("bond", langmodel.TermStats{DF: 1, CTF: 1})
	return []*langmodel.Model{a, b}
}

func goldenSnapshot() *Snapshot {
	return &Snapshot{
		Epoch:        42,
		Names:        []string{"alpha", "beta"},
		Fingerprints: []uint64{0x0123456789abcdef, 0xfedcba9876543210},
		Compiled:     Compile(goldenModels()),
	}
}

// assertCompiledEqual demands bit-for-bit equality id for id — decoding
// must reproduce exactly what was encoded, including term-id assignment
// (the dictionary section preserves id order).
func assertCompiledEqual(t *testing.T, got, want *Compiled) {
	t.Helper()
	if got.VocabSize() != want.VocabSize() {
		t.Fatalf("%d terms, want %d", got.VocabSize(), want.VocabSize())
	}
	for i := 0; i < want.VocabSize(); i++ {
		term := want.TermAt(i)
		if got.TermAt(i) != term {
			t.Fatalf("term %d = %q, want %q", i, got.TermAt(i), term)
		}
		if id, ok := got.ID(term); !ok || id != int32(i) {
			t.Fatalf("ID(%q) = %d,%v, want %d", term, id, ok, i)
		}
	}
	// Ids agree, so the term-keyed comparison is an id-keyed one.
	assertPatchEquivalent(t, 0, got, want)
}

func TestSnapshotRoundTrip(t *testing.T) {
	t.Run("patched", testSnapshotRoundTripPatched)
	src := randx.New(0x5eed)
	for trial := 0; trial < 20; trial++ {
		models := randomModels(src, 1+src.Intn(25), 50)
		names := make([]string, len(models))
		fps := make([]uint64, len(models))
		for i := range names {
			names[i] = fmt.Sprintf("db%02d", i)
			fps[i] = src.Uint64()
		}
		in := &Snapshot{Epoch: src.Uint64(), Names: names, Fingerprints: fps, Compiled: Compile(models)}
		if trial%3 == 0 {
			in.Fingerprints = nil // the section is optional
		}
		data, err := EncodeSnapshot(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if out.Epoch != in.Epoch {
			t.Fatalf("epoch %d, want %d", out.Epoch, in.Epoch)
		}
		if len(out.Names) != len(in.Names) {
			t.Fatalf("%d names, want %d", len(out.Names), len(in.Names))
		}
		for i := range in.Names {
			if out.Names[i] != in.Names[i] {
				t.Fatalf("name %d = %q, want %q", i, out.Names[i], in.Names[i])
			}
		}
		if in.Fingerprints == nil {
			if out.Fingerprints != nil {
				t.Fatal("fingerprints materialized from nothing")
			}
		} else {
			for i := range in.Fingerprints {
				if out.Fingerprints[i] != in.Fingerprints[i] {
					t.Fatalf("fingerprint %d mismatch", i)
				}
			}
		}
		assertCompiledEqual(t, out.Compiled, in.Compiled)

		// Decoded snapshots must score, not just compare: the ids map is
		// rebuilt from the dictionary section.
		query := []string{"t000", "t013", "unknown-term"}
		scores := make([]float64, len(models))
		ids := out.Compiled.AppendIDs(nil, query)
		for _, alg := range compiledAlgorithms() {
			want := alg.Scores(query, models)
			if !out.Compiled.ScoreInto(alg, ids, scores) {
				t.Fatalf("ScoreInto rejected %s", alg.Name())
			}
			for i := range want {
				if math.Float64bits(scores[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d %s: db %d decoded score %v != map score %v",
						trial, alg.Name(), i, scores[i], want[i])
				}
			}
		}
	}
}

// testSnapshotRoundTripPatched: a patched snapshot carries a delta and ghost
// terms the format has no room for, so the encoder writes its fold. Decoded,
// it must be a base-only snapshot that matches — row by row, keyed by term —
// the decoded encoding of a fresh Compile of the same models, ghosts gone.
func testSnapshotRoundTripPatched(t *testing.T) {
	src := randx.New(0xde17a)
	models := make([]*langmodel.Model, 24)
	names := make([]string, len(models))
	for i := range models {
		models[i] = sparseModel(src, i, 40)
		names[i] = fmt.Sprintf("db%02d", i)
	}
	patched := Compile(models)
	for _, db := range []int{5, 19, 5} {
		repl := sparseModel(src, db, 10+src.Intn(30))
		next, err := patched.Patch([]ModelPatch{{DB: db, Old: models[db], New: repl}})
		if err != nil {
			t.Fatal(err)
		}
		models[db], patched = repl, next
	}
	fresh := Compile(models)
	if patched.ovr == nil || patched.VocabSize() <= fresh.VocabSize() {
		t.Fatal("fixture must carry a delta and ghost terms into the encoder")
	}
	roundTrip := func(c *Compiled) *Compiled {
		data, err := EncodeSnapshot(&Snapshot{Epoch: 9, Names: names, Compiled: c})
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		return out.Compiled
	}
	got, want := roundTrip(patched), roundTrip(fresh)
	if got.ovr != nil || got.VocabSize() != want.VocabSize() {
		t.Fatalf("decoded a delta or %d terms, want a base-only snapshot of %d", got.VocabSize(), want.VocabSize())
	}
	assertPatchEquivalent(t, 0, got, want)
	assertScoresMatchMaps(t, 0, got, models, []string{"s01", "d05-03", "d19-40", "unknown-term"})
}

// TestSnapshotGoldenBytes pins the on-disk format: any codec change that
// alters the bytes of this fixed fixture is a format change and must bump
// SnapshotVersion (and update this golden) deliberately.
func TestSnapshotGoldenBytes(t *testing.T) {
	data, err := EncodeSnapshot(goldenSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.Join(strings.Fields(snapshotGoldenHex), ""))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("encoding changed (%d bytes, want %d):\n%s\nupdate snapshotGoldenHex only with a deliberate format bump",
			len(data), len(want), hex.Dump(data))
	}
	// And the golden decodes back to the golden.
	out, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Epoch != 42 || len(out.Names) != 2 || out.Names[0] != "alpha" {
		t.Fatalf("golden decoded to %+v", out)
	}
	assertCompiledEqual(t, out.Compiled, goldenSnapshot().Compiled)
}

// TestSnapshotDetectsCorruption flips every single byte of the golden
// encoding in turn: no corruption may survive both DecodeSnapshot and the
// (header- and table-only) InspectSnapshot undetected. Inspect tolerates
// payload damage by design, but must then report the section as bad.
func TestSnapshotDetectsCorruption(t *testing.T) {
	orig, err := EncodeSnapshot(goldenSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, len(orig))
	for i := range orig {
		copy(data, orig)
		data[i] ^= 0x40
		if _, err := DecodeSnapshot(data); err == nil {
			// Padding bytes are the only region no checksum covers... and
			// there are none outside section payloads' trailing alignment,
			// which the section CRC does cover. So: everything must fail.
			t.Fatalf("flip at byte %d went undetected by DecodeSnapshot", i)
		}
		info, err := InspectSnapshot(data)
		if err != nil {
			continue // header or table damage: Inspect refuses outright
		}
		ok := true
		for _, s := range info.Sections {
			ok = ok && s.OK
		}
		if ok {
			t.Fatalf("flip at byte %d: InspectSnapshot reports all sections clean", i)
		}
	}
}

// resealHeader recomputes the header checksum after a test edits the
// header, so the edit reaches the checks behind the checksum.
func resealHeader(data []byte) {
	binary.LittleEndian.PutUint32(data[56:], crc32.Checksum(data[:56], castagnoli))
}

// TestSnapshotRefusesVersion1: a version 1 file stored CORI's idf and
// avg_cw, which version 2 derives instead; with an intact checksum it is
// still refused by its version, so a service cold-starts from its models.
func TestSnapshotRefusesVersion1(t *testing.T) {
	data, err := EncodeSnapshot(goldenSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:], 1)
	resealHeader(data)
	for name, parse := range map[string]func([]byte) error{
		"DecodeSnapshot":  func(b []byte) error { _, err := DecodeSnapshot(b); return err },
		"InspectSnapshot": func(b []byte) error { _, err := InspectSnapshot(b); return err },
	} {
		if err := parse(data); err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 1") {
			t.Errorf("%s of a version 1 header: err = %v", name, err)
		}
	}
}

// TestSnapshotReservedHeaderBytes: header bytes 40..56 are reserved and
// must be zero even where the header checksum vouches for them, so that no
// byte of a segment means something a reader ignores.
func TestSnapshotReservedHeaderBytes(t *testing.T) {
	orig, err := EncodeSnapshot(goldenSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !allZero(orig[40:56]) {
		t.Fatalf("encoder wrote % x into the reserved header bytes", orig[40:56])
	}
	for i := 40; i < 56; i++ {
		data := bytes.Clone(orig)
		data[i] = 1
		resealHeader(data)
		if _, err := DecodeSnapshot(data); err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Errorf("reserved byte %d set: DecodeSnapshot err = %v", i, err)
		}
	}
}

// TestSnapshotRefusesFractionalCW: avg_cw is derived from the exact sum of
// the cw column, so a column value that is not a term count is refused.
func TestSnapshotRefusesFractionalCW(t *testing.T) {
	for _, w := range []float64{-1, 0.5, math.NaN(), math.Inf(1), 1 << 53} {
		c := Compile(goldenModels())
		c.cw = []float64{c.cw[0], w}
		data, err := EncodeSnapshot(&Snapshot{Names: []string{"a", "b"}, Compiled: c})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeSnapshot(data); err == nil || !strings.Contains(err.Error(), "collection size") {
			t.Errorf("cw %v: DecodeSnapshot err = %v", w, err)
		}
	}
}

// TestSnapshotRefusesRepeatedTerm: a dictionary that lists a term twice
// would leave one of its two rows unreachable, so decoding refuses it.
func TestSnapshotRefusesRepeatedTerm(t *testing.T) {
	c := Compile(goldenModels())
	c.terms = slices.Clone(c.terms)
	c.terms[1] = c.terms[0]
	data, err := EncodeSnapshot(&Snapshot{Names: []string{"a", "b"}, Compiled: c})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSnapshot(data); err == nil || !strings.Contains(err.Error(), "repeats term 0") {
		t.Errorf("DecodeSnapshot err = %v", err)
	}
}

func TestSnapshotTruncationAndGarbage(t *testing.T) {
	data, err := EncodeSnapshot(goldenSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, 7, 8, snapHeaderSize - 1, snapHeaderSize, len(data) / 2, len(data) - 1} {
		if _, err := DecodeSnapshot(data[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded", n)
		}
	}
	if _, err := DecodeSnapshot([]byte("QBSNAP1\x00 but then nonsense follows")); err == nil {
		t.Error("garbage after a valid magic decoded")
	}
	if _, err := DecodeSnapshot(bytes.Repeat([]byte{0}, len(data))); err == nil {
		t.Error("zero bytes decoded")
	}
}

func TestSnapshotEncodeRejectsMismatchedInputs(t *testing.T) {
	c := Compile(goldenModels())
	for _, s := range []*Snapshot{
		{Names: []string{"only-one"}, Compiled: c},
		{Names: []string{"a", "b"}, Fingerprints: []uint64{1}, Compiled: c},
		{Names: []string{"a", "b"}},
	} {
		if _, err := EncodeSnapshot(s); err == nil {
			t.Errorf("EncodeSnapshot accepted %+v", s)
		}
	}
}

// TestSnapshotZeroDBFederation: an empty federation still round-trips (a
// service can persist before anything is registered).
func TestSnapshotZeroDBFederation(t *testing.T) {
	in := &Snapshot{Epoch: 1, Names: nil, Compiled: Compile(nil)}
	data, err := EncodeSnapshot(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if out.Compiled.NumDBs() != 0 || out.Compiled.VocabSize() != 0 {
		t.Fatalf("decoded %d dbs, %d terms", out.Compiled.NumDBs(), out.Compiled.VocabSize())
	}
}

// FuzzDecodeSnapshot hammers the decoder with mutated segments: whatever
// the bytes, it must return an error or a structurally sound snapshot —
// never panic, never an out-of-range posting that would crash a query.
func FuzzDecodeSnapshot(f *testing.F) {
	golden, err := EncodeSnapshot(goldenSnapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte{})
	f.Add([]byte("QBSNAP1\x00"))
	empty, _ := EncodeSnapshot(&Snapshot{Compiled: Compile(nil)})
	f.Add(empty)
	for _, i := range []int{9, 13, 17, 25, 57, 65, 73, 90} {
		if i < len(golden) {
			mut := bytes.Clone(golden)
			mut[i] ^= 0xff
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		c := snap.Compiled
		if len(snap.Names) != c.NumDBs() {
			t.Fatalf("%d names for %d dbs", len(snap.Names), c.NumDBs())
		}
		// Exercise the decoded snapshot the way a query would.
		query := []string{"apple", "stock", "no-such-term"}
		if c.VocabSize() > 0 {
			query = append(query, c.TermAt(0))
		}
		scores := make([]float64, c.NumDBs())
		ids := c.AppendIDs(nil, query)
		for _, alg := range compiledAlgorithms() {
			c.ScoreInto(alg, ids, scores)
		}
	})
}

// snapshotGoldenHex is the full QBSNAP1 version 2 encoding of
// goldenSnapshot().
const snapshotGoldenHex = `
5142534e4150310002000000080000002a000000000000000200000003000000
04000000000000000000000000000000000000000000000051f0cc5f00000000
01000000abcd2e7b080100000000000015000000000000000200000065524987
20010000000000001000000000000000030000009ca466ee3001000000000000
1e0000000000000004000000c8816c9e50010000000000001000000000000000
05000000489f4e4f600100000000000010000000000000000700000040f867d3
7001000000000000100000000000000008000000754d09d68001000000000000
10000000000000000900000099a9c11c90010000000000002000000000000000
b0e8e87000000000000000000500000009000000616c70686162657461000000
efcdab89674523011032547698badcfe00000000050000000a0000000e000000
6170706c6573746f636b626f6e64000000000000000024400000000000001440
00000000000028400000000000002a4000000000010000000300000004000000
0000000000000000010000000100000000000000000010400000000000000040
0000000000001440000000000000f03f
`
