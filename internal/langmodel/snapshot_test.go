package langmodel

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/analysis"
)

// docTokens fabricates deterministic pseudo-documents with a Zipf-ish mix
// of head and tail terms.
func docTokens(doc int) []string {
	var toks []string
	for i := 0; i < 30; i++ {
		toks = append(toks, fmt.Sprintf("head%02d", i%7))
		toks = append(toks, fmt.Sprintf("mid%03d", (doc*31+i)%97))
		if i%5 == 0 {
			toks = append(toks, fmt.Sprintf("tail-%d-%d", doc, i))
		}
	}
	return toks
}

func TestSnapshotMatchesClone(t *testing.T) {
	live := New()
	var snaps, clones []*Model
	for doc := 0; doc < 120; doc++ {
		live.AddDocument(docTokens(doc))
		if doc%10 == 9 {
			clones = append(clones, live.Clone())
			snaps = append(snaps, live.Snapshot())
		}
	}
	if len(snaps) != 12 {
		t.Fatalf("got %d snapshots", len(snaps))
	}
	// Later mutations must not leak into any snapshot; each snapshot must
	// equal the deep clone taken at the same instant.
	for i, snap := range snaps {
		clone := clones[i]
		if !snap.Equal(clone) {
			t.Fatalf("snapshot %d diverged from clone", i)
		}
		if snap.Docs() != clone.Docs() || snap.TotalCTF() != clone.TotalCTF() ||
			snap.VocabSize() != clone.VocabSize() {
			t.Fatalf("snapshot %d counters diverged", i)
		}
		// first-seen order preserved through the chain
		for j := 0; j < snap.VocabSize(); j++ {
			if snap.TermAt(j) != clone.TermAt(j) {
				t.Fatalf("snapshot %d order diverged at %d", i, j)
			}
		}
	}
}

// TestSnapshotOwnsStatsAndIndex: however many snapshots came before, a
// snapshot is one flat layer. Its stats and index are copies the live
// model never writes to, its order is a prefix of the live order capped at
// its own length, and its index is a power of two at most 3/4 full that
// finds every term at its own position.
func TestSnapshotOwnsStatsAndIndex(t *testing.T) {
	live := New()
	var snaps []*Model
	for doc := 0; doc < 300; doc++ {
		live.AddDocument(docTokens(doc))
		if doc%10 == 9 {
			snaps = append(snaps, live.Snapshot())
		}
	}
	for i, snap := range snaps {
		n := len(snap.order)
		if cap(snap.order) != n || cap(snap.stats) < n || len(snap.stats) != n {
			t.Fatalf("snapshot %d: order %d/%d, stats %d/%d", i, n, cap(snap.order), len(snap.stats), cap(snap.stats))
		}
		if &snap.stats[0] == &live.stats[0] || &snap.index[0] == &live.index[0] {
			t.Fatalf("snapshot %d shares the live model's stats or index", i)
		}
		if size := len(snap.index); size&(size-1) != 0 || 4*n > 3*size {
			t.Fatalf("snapshot %d: index of %d slots for %d terms", i, size, n)
		}
		for p, term := range snap.order {
			if got, _ := snap.probe(term); got != p || live.order[p] != term {
				t.Fatalf("snapshot %d: %q at %d, index says %d, live has %q", i, term, p, got, live.order[p])
			}
		}
	}
}

func TestSnapshotIsImmutable(t *testing.T) {
	live := New()
	live.AddDocument([]string{"a", "b", "a"})
	snap := live.Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("mutating a frozen snapshot did not panic")
		}
	}()
	snap.AddDocument([]string{"c"})
}

func TestSnapshotOfSnapshotIsSame(t *testing.T) {
	live := New()
	live.AddDocument([]string{"a", "b"})
	snap := live.Snapshot()
	if snap.Snapshot() != snap {
		t.Fatal("snapshot of a frozen model should be itself")
	}
}

func TestSnapshotCloneIsMutable(t *testing.T) {
	live := New()
	live.AddDocument([]string{"a", "b", "a"})
	snap := live.Snapshot()
	live.AddDocument([]string{"c"})

	c := snap.Clone()
	c.AddDocument([]string{"d", "a"})
	if snap.Contains("d") || snap.Contains("c") {
		t.Fatal("clone mutation leaked into snapshot")
	}
	if c.DF("a") != 2 || c.CTF("a") != 3 {
		t.Fatalf("clone stats wrong: df=%d ctf=%d", c.DF("a"), c.CTF("a"))
	}
}

func TestSnapshotSerializationAndRanks(t *testing.T) {
	live := New()
	for doc := 0; doc < 40; doc++ {
		live.AddDocument(docTokens(doc))
		if doc%7 == 6 {
			live.Snapshot()
		}
	}
	snap := live.Snapshot() // chained model
	flat := snap.Clone()

	var a, b bytes.Buffer
	if _, err := snap.WriteBinary(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := flat.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("chained and flat serialization differ")
	}

	ra := snap.Ranks(ByDF)
	rb := flat.Ranks(ByDF)
	if len(ra) != len(rb) {
		t.Fatalf("rank sizes differ: %d vs %d", len(ra), len(rb))
	}
	for k, v := range ra {
		if rb[k] != v {
			t.Fatalf("rank of %q differs: %f vs %f", k, v, rb[k])
		}
	}
	tops := snap.TopTerms(ByCTF, 5)
	topf := flat.TopTerms(ByCTF, 5)
	for i := range tops {
		if tops[i] != topf[i] {
			t.Fatalf("top terms differ at %d: %s vs %s", i, tops[i], topf[i])
		}
	}
}

func TestNormalizeCached(t *testing.T) {
	live := New()
	live.AddDocument([]string{"running", "the", "runs", "cat"})
	an := analysis.Database()

	n1 := live.Normalize(an)
	n2 := live.Normalize(an)
	if n1 != n2 {
		t.Error("unchanged model not served from cache")
	}

	live.AddDocument([]string{"dog"})
	n3 := live.Normalize(an)
	if n3 == n1 {
		t.Error("stale cache returned after mutation")
	}
	if !n3.Contains("dog") {
		t.Error("recomputed view missing new term")
	}

	// A different analyzer must not hit the first analyzer's cache.
	n4 := live.Normalize(analysis.Raw())
	if n4 == n3 {
		t.Error("cache ignored analyzer identity")
	}
	if !n4.Contains("the") {
		t.Error("raw view should keep stopwords")
	}
	if n3.Contains("the") {
		t.Error("database view should drop stopwords")
	}
}

// TestNormalizeEquivalentOnSnapshot: the view a snapshot normalizes to is
// the live model's and a clone's, term order included.
func TestNormalizeEquivalentOnSnapshot(t *testing.T) {
	live := New()
	for doc := 0; doc < 25; doc++ {
		live.AddDocument(docTokens(doc))
		if doc%6 == 5 {
			live.Snapshot()
		}
	}
	an := analysis.Database()
	got := live.Snapshot().Normalize(an)
	for _, want := range []*Model{live.Normalize(an), live.Clone().Normalize(an)} {
		sameFold(t, got, want)
	}
}

func TestAddDocumentSinglePassDeterminism(t *testing.T) {
	// Equivalence with the documented semantics: df +1 per distinct term,
	// ctf per occurrence, first-seen order.
	m := New()
	m.AddDocument([]string{"b", "a", "b", "c", "a", "b"})
	if m.DF("b") != 1 || m.CTF("b") != 3 {
		t.Fatalf("b: df=%d ctf=%d", m.DF("b"), m.CTF("b"))
	}
	if m.TermAt(0) != "b" || m.TermAt(1) != "a" || m.TermAt(2) != "c" {
		t.Fatal("first-seen order broken")
	}
	m.AddDocument([]string{"a", "d"})
	if m.DF("a") != 2 || m.CTF("a") != 3 || m.Docs() != 2 || m.TotalCTF() != 8 {
		t.Fatalf("counters wrong: %v", m)
	}
	if m.TermAt(3) != "d" {
		t.Fatal("new term not appended in order")
	}
}

// TestSnapshotReadWhileLiveFolds: a snapshot is read from several
// goroutines while the live model it came from keeps folding documents of
// known and new terms. Run under -race it shows the live model writes
// nothing a snapshot reads; in any run the snapshot's content never moves.
func TestSnapshotReadWhileLiveFolds(t *testing.T) {
	live := New()
	for doc := 0; doc < 20; doc++ {
		live.AddDocument(docTokens(doc))
	}
	snap := live.Snapshot()
	want := snap.Fingerprint()
	n := snap.VocabSize()
	done := make(chan struct{})
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for {
				select {
				case <-done:
					errs <- ""
					return
				default:
				}
				var ctf int64
				snap.Range(func(term string, st TermStats) bool {
					ctf += st.CTF
					return true
				})
				for i := 0; i < n; i += 7 {
					if st, ok := snap.Stats(snap.TermAt(i)); !ok || st.DF == 0 {
						errs <- fmt.Sprintf("term %d %q lost: %+v", i, snap.TermAt(i), st)
						return
					}
				}
				if got := snap.Fingerprint(); got != want || ctf != snap.TotalCTF() {
					errs <- fmt.Sprintf("fingerprint %x, want %x; ctf %d, want %d", got, want, ctf, snap.TotalCTF())
					return
				}
			}
		}()
	}
	for doc := 20; doc < 220; doc++ {
		live.AddDocument(docTokens(doc)) // head and mid terms known, tail terms new
	}
	close(done)
	for g := 0; g < 4; g++ {
		if e := <-errs; e != "" {
			t.Fatal(e)
		}
	}
	if snap.VocabSize() != n || snap.Fingerprint() != want {
		t.Fatal("the snapshot changed while the live model folded")
	}
}
