package selection

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/langmodel"
	"repro/internal/randx"
)

// assertPatchEquivalent checks the Patch contract against a from-scratch
// compile of the same model list: identical database columns and cw sum,
// identical posting rows (matched by term string — ids differ, since
// patch-introduced terms take appended ids and a fold renumbers), and
// nothing extra in the patched snapshot beyond score-inert ghost terms
// (empty row), of which there are never more than live terms.
func assertPatchEquivalent(t *testing.T, trial int, got, want *Compiled) {
	t.Helper()
	if got.NumDBs() != want.NumDBs() {
		t.Fatalf("trial %d: %d dbs, want %d", trial, got.NumDBs(), want.NumDBs())
	}
	if got.sumCW != want.sumCW {
		t.Fatalf("trial %d: sumCW %d != %d", trial, got.sumCW, want.sumCW)
	}
	for i := range want.docs {
		if math.Float64bits(got.docs[i]) != math.Float64bits(want.docs[i]) ||
			math.Float64bits(got.cw[i]) != math.Float64bits(want.cw[i]) {
			t.Fatalf("trial %d: db %d columns (%v,%v) != (%v,%v)",
				trial, i, got.docs[i], got.cw[i], want.docs[i], want.cw[i])
		}
	}
	if got.Postings() != want.Postings() {
		t.Fatalf("trial %d: %d postings, want %d", trial, got.Postings(), want.Postings())
	}
	for wid := 0; wid < want.VocabSize(); wid++ {
		term := want.TermAt(wid)
		gid, ok := got.ID(term)
		if !ok {
			t.Fatalf("trial %d: patched snapshot lost term %q", trial, term)
		}
		if got.TermAt(int(gid)) != term {
			t.Fatalf("trial %d: ID(%q) = %d but TermAt(%d) = %q", trial, term, gid, gid, got.TermAt(int(gid)))
		}
		gdb, gdf := got.row(gid)
		wdb, wdf := want.row(int32(wid))
		if len(gdb) != len(wdb) {
			t.Fatalf("trial %d: term %q row has %d postings, want %d", trial, term, len(gdb), len(wdb))
		}
		for i := range wdb {
			if gdb[i] != wdb[i] || math.Float64bits(gdf[i]) != math.Float64bits(wdf[i]) {
				t.Fatalf("trial %d: term %q posting %d (%d,%v) != (%d,%v)",
					trial, term, i, gdb[i], gdf[i], wdb[i], wdf[i])
			}
		}
	}
	ghosts := 0
	for gid := 0; gid < got.VocabSize(); gid++ {
		if _, ok := want.ID(got.TermAt(gid)); ok {
			continue
		}
		// A term every model dropped: it may linger interned until the next
		// fold, but only as a ghost that scores exactly like an
		// out-of-dictionary term.
		ghosts++
		if dbs, _ := got.row(int32(gid)); len(dbs) != 0 {
			t.Fatalf("trial %d: vanished term %q kept postings", trial, got.TermAt(gid))
		}
	}
	if ghosts > want.VocabSize() {
		t.Fatalf("trial %d: %d ghost terms beside %d live ones", trial, ghosts, want.VocabSize())
	}
}

// assertScoresMatchMaps requires every compiled scorer over snap to
// reproduce the map-based gold standard over models, bit for bit.
func assertScoresMatchMaps(t *testing.T, trial int, snap *Compiled, models []*langmodel.Model, query []string) {
	t.Helper()
	ids := snap.AppendIDs(nil, query)
	scores := make([]float64, len(models))
	for _, alg := range compiledAlgorithms() {
		want := alg.Scores(query, models)
		if !snap.ScoreInto(alg, ids, scores) {
			t.Fatalf("ScoreInto rejected %s", alg.Name())
		}
		for i := range want {
			if math.Float64bits(scores[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d %s: db %d patched score %v != map score %v (query %v)",
					trial, alg.Name(), i, scores[i], want[i], query)
			}
		}
	}
}

// sparseModel builds a model for database db of a sparse federation: own
// terms from the database's private pool of 90, plus 3 of 20 terms every
// database shares (so some rows hold several databases).
func sparseModel(src *randx.Source, db, own int) *langmodel.Model {
	m := langmodel.New()
	m.SetDocs(1 + src.Intn(500))
	add := func(term string) {
		df := 1 + src.Intn(200)
		m.AddTerm(term, langmodel.TermStats{DF: df, CTF: int64(df + src.Intn(400))})
	}
	for _, j := range src.Perm(90)[:own] {
		add(fmt.Sprintf("d%02d-%02d", db, j))
	}
	for _, j := range src.Perm(20)[:3] {
		add(fmt.Sprintf("s%02d", j))
	}
	return m
}

// TestPatchMatchesFullCompile is the incremental-recompilation property
// test: across random model sets, random replacement subsets, and chained
// patches (a patch applied to an already-patched snapshot), the patched
// snapshot must equal a from-scratch Compile of the final model list —
// structurally (rows, columns, cw sum, Float64bits for Float64bits) and
// through every compiled scorer against the map-based gold standard.
func TestPatchMatchesFullCompile(t *testing.T) {
	t.Run("long-chain", testPatchLongChain)
	t.Run("ghost-revival", testPatchGhostRevival)
	src := randx.New(0xbadc0de)
	for trial := 0; trial < 40; trial++ {
		nDBs := 1 + src.Intn(20)
		models := randomModels(src, nDBs, 40)
		snap := Compile(models)

		// Two rounds of patching: the second patches the first's output, so
		// the lineage's shared dictionary and patched-row re-patching get
		// exercised.
		// Replacements draw from a 60-term pool — terms t040..t059 are new
		// to the snapshot and take appended ids.
		for round := 0; round < 2; round++ {
			k := 1 + src.Intn(nDBs)
			patches := make([]ModelPatch, 0, k)
			for _, idx := range src.Perm(nDBs)[:k] {
				repl := randomModels(src, 1, 60)[0]
				patches = append(patches, ModelPatch{DB: idx, Old: models[idx], New: repl})
				models[idx] = repl
			}
			var err error
			snap, err = snap.Patch(patches)
			if err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
		}

		full := Compile(models)
		assertPatchEquivalent(t, trial, snap, full)

		for q := 0; q < 4; q++ {
			qlen := 1 + src.Intn(6)
			query := make([]string, qlen)
			for i := range query {
				if src.Intn(8) == 0 {
					query[i] = "unknown-term"
				} else {
					query[i] = fmt.Sprintf("t%03d", src.Intn(60))
				}
			}
			assertScoresMatchMaps(t, trial, snap, models, query)
		}
	}
}

// testPatchLongChain is the long-chain arm: 2000 single-model patches, each
// applied to the previous one's output, over a sparse federation (48
// databases, mostly disjoint vocabularies) whose models alternately shrink
// to a few terms and grow back to dozens of fresh ones. Shrinking strands
// terms as ghosts until the ghost rule folds; growing fills the delta until
// the postings rule folds; in between, patches ride on a warm delta. After
// every step the snapshot must equal Compile of the current models — which
// also bounds the ghosts, so the dictionary cannot grow with the chain.
//
// The chain is one lineage sharing one dictionary, so the arm also holds
// the lineage rules. Readers rank every snapshot the chain has moved past
// while later patches append to that dictionary (the race detector
// watches), and each ranking must be bit-equal to Compile and to the map
// scorers over the snapshot's own models. Every 25th step patches the
// previous snapshot again, a sibling of the tip, which must fork the
// dictionary whenever it interns a term and leave the tip's untouched. And
// the snapshot of 10 steps back must miss every term added after it.
func testPatchLongChain(t *testing.T) {
	const nDBs = 48
	src := randx.New(0x5ba25e)
	models := make([]*langmodel.Model, nDBs)
	for i := range models {
		models[i] = sparseModel(src, i, 30+src.Intn(30))
	}
	snap := Compile(models)
	order := src.Perm(nDBs)

	type held struct {
		snap   *Compiled
		models []*langmodel.Model
		query  []string
	}
	older := make(chan held, 8)
	var readers sync.WaitGroup
	for range 2 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for h := range older {
				full := Compile(h.models)
				ids, fullIDs := h.snap.AppendIDs(nil, h.query), full.AppendIDs(nil, h.query)
				got, fromFull := make([]float64, nDBs), make([]float64, nDBs)
				for _, alg := range compiledAlgorithms() {
					h.snap.ScoreInto(alg, ids, got)
					full.ScoreInto(alg, fullIDs, fromFull)
					want := alg.Scores(h.query, h.models)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) ||
							math.Float64bits(got[i]) != math.Float64bits(fromFull[i]) {
							t.Errorf("%s on an older snapshot: db %d scores %v, Compile %v, map %v (query %v)",
								alg.Name(), i, got[i], fromFull[i], want[i], h.query)
							return
						}
					}
				}
			}
		}()
	}
	defer readers.Wait()
	defer close(older)

	var back []*Compiled // the last 10 snapshots, oldest first
	var ghostFolds, postingFolds, onDelta, forks, misses int
	for step := 0; step < 2000; step++ {
		db := order[step%nDBs]
		own := 1 + src.Intn(3)
		if (step/nDBs)%2 == 1 {
			own = 30 + src.Intn(30)
		}
		repl := sparseModel(src, db, own)
		interned := snap.VocabSize()
		repl.Range(func(term string, _ langmodel.TermStats) bool {
			if _, ok := snap.ID(term); !ok {
				interned++
			}
			return true
		})
		next, err := snap.Patch([]ModelPatch{{DB: db, Old: models[db], New: repl}})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		prev, prevModels := snap, slices.Clone(models)
		models[db], snap = repl, next
		older <- held{prev, prevModels, []string{
			fmt.Sprintf("s%02d", src.Intn(20)),
			fmt.Sprintf("d%02d-%02d", db, src.Intn(90)),
			fmt.Sprintf("d%02d-%02d", src.Intn(nDBs), src.Intn(90)),
		}}

		if step%25 == 0 {
			// A sibling of the tip: prev patched again, at another database.
			sdb := order[(step+1)%nDBs]
			srepl := sparseModel(src, sdb, 30+src.Intn(30))
			tipTerms, shared := len(snap.dict.terms), prev.dict == snap.dict
			sib, err := prev.Patch([]ModelPatch{{DB: sdb, Old: prevModels[sdb], New: srepl}})
			if err != nil {
				t.Fatalf("step %d sibling: %v", step, err)
			}
			if shared && snap.VocabSize() > prev.VocabSize() && sib.VocabSize() > prev.VocabSize() {
				forks++
				if sib.dict == snap.dict || len(snap.dict.terms) != tipTerms {
					t.Fatalf("step %d: a sibling patch appended to the tip's dictionary", step)
				}
			}
			sibModels := slices.Clone(prevModels)
			sibModels[sdb] = srepl
			assertPatchEquivalent(t, step, sib, Compile(sibModels))
			assertScoresMatchMaps(t, step, sib, sibModels, []string{
				fmt.Sprintf("d%02d-%02d", sdb, src.Intn(90)), fmt.Sprintf("s%02d", src.Intn(20)), "unknown-term",
			})
		}
		if back = append(back, snap); len(back) > 10 {
			back = back[1:]
			if old := back[0]; old.dict == snap.dict {
				for id := old.VocabSize(); id < snap.VocabSize(); id++ {
					misses++
					if got, ok := old.ID(snap.TermAt(id)); ok {
						t.Fatalf("step %d: a snapshot 10 steps old finds %q, added after it, at id %d", step, snap.TermAt(id), got)
					}
				}
			}
		}

		full := Compile(models)
		assertPatchEquivalent(t, step, snap, full)
		query := []string{
			fmt.Sprintf("s%02d", src.Intn(20)),
			fmt.Sprintf("d%02d-%02d", db, src.Intn(90)),
			fmt.Sprintf("d%02d-%02d", src.Intn(nDBs), src.Intn(90)),
			"unknown-term",
		}
		assertScoresMatchMaps(t, step, snap, models, query)

		// Which path did the patch take? Without a fold the dictionary would
		// hold `interned` terms, full.VocabSize() of them live.
		switch ghosts := interned - full.VocabSize(); {
		case snap.ovr != nil:
			onDelta++
		case ghosts > full.VocabSize():
			ghostFolds++
		default:
			postingFolds++
		}
	}
	if ghostFolds < 3 || postingFolds < 3 || onDelta < 300 {
		t.Fatalf("chain took %d ghost folds, %d posting folds, %d delta patches; want several of each",
			ghostFolds, postingFolds, onDelta)
	}
	t.Logf("%d forked siblings, %d later terms missed by older snapshots", forks, misses)
	if forks < 10 || misses < 1000 {
		t.Fatalf("chain forked %d siblings and checked %d later terms against older snapshots; want more", forks, misses)
	}
}

// testPatchGhostRevival is the revival arm: a sparse federation of 24 is
// patched at db 5, then db 19, then db 5 again. The first patch strands
// some of db 5's private terms as ghosts, and the third brings some of
// them back, so a row that went empty gains postings again while still
// interned. The chain ends on a delta that still carries ghosts, and must
// equal Compile of the final models and score like the map scorers.
func testPatchGhostRevival(t *testing.T) {
	src := randx.New(0xde17a)
	models := make([]*langmodel.Model, 24)
	for i := range models {
		models[i] = sparseModel(src, i, 40)
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
		t.Fatal("fixture must end on a delta carrying ghost terms")
	}
	assertPatchEquivalent(t, 0, patched, fresh)
	assertScoresMatchMaps(t, 0, patched, models, []string{"s01", "d05-03", "d19-40", "unknown-term"})
}

// TestPatchLeavesReceiverUntouched pins immutability: a snapshot still
// serving queries must not observe a sibling's patch.
func TestPatchLeavesReceiverUntouched(t *testing.T) {
	models := threeDBs()
	base := Compile(models)
	query := []string{"apple", "stock"}
	before := base.Rank(CORI{}, query)

	repl := langmodel.New()
	repl.SetDocs(7)
	repl.AddTerm("apple", langmodel.TermStats{DF: 3, CTF: 9})
	repl.AddTerm("zebra", langmodel.TermStats{DF: 1, CTF: 1})
	if _, err := base.Patch([]ModelPatch{{DB: 0, Old: models[0], New: repl}}); err != nil {
		t.Fatal(err)
	}

	after := base.Rank(CORI{}, query)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("patch mutated its receiver: %+v -> %+v", before, after)
		}
	}
	if _, ok := base.ID("zebra"); ok {
		t.Fatal("patch leaked a new term into its receiver's dictionary")
	}

	// Two siblings patched from one parent share its base table and
	// dictionary; all three must serve at once (the race detector watches)
	// and each must score as a fresh compile of its own model list.
	src := randx.New(0x51b1)
	parentModels := make([]*langmodel.Model, 24)
	for i := range parentModels {
		parentModels[i] = sparseModel(src, i, 40)
	}
	family := [][]*langmodel.Model{parentModels}
	snaps := []*Compiled{Compile(parentModels)}
	for _, db := range []int{3, 17} {
		repl := sparseModel(src, db, 40)
		sib, err := snaps[0].Patch([]ModelPatch{{DB: db, Old: parentModels[db], New: repl}})
		if err != nil {
			t.Fatal(err)
		}
		if sib.base != snaps[0].base {
			t.Fatal("a sparse sibling patch did not share its parent's base table")
		}
		sibModels := slices.Clone(parentModels)
		sibModels[db] = repl
		family, snaps = append(family, sibModels), append(snaps, sib)
	}
	var wg sync.WaitGroup
	for i := range snaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				query := []string{"s03", "d03-07", "d17-11", fmt.Sprintf("d%02d-%02d", round%24, round)}
				want := Rank(CORI{}, query, family[i])
				if got := snaps[i].Rank(CORI{}, query); !reflect.DeepEqual(got, want) {
					t.Errorf("snapshot %d round %d: ranking diverges from the map scorer", i, round)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPatchRejectsBadArguments covers the caller-mistake surface: out of
// range indices, nil models, duplicate targets, and an Old model the
// snapshot was not compiled from.
func TestPatchRejectsBadArguments(t *testing.T) {
	models := threeDBs()
	c := Compile(models)
	ok := langmodel.New()
	ok.SetDocs(1)
	ok.AddTerm("apple", langmodel.TermStats{DF: 1, CTF: 1})

	cases := []struct {
		name    string
		patches []ModelPatch
	}{
		{"negative index", []ModelPatch{{DB: -1, Old: models[0], New: ok}}},
		{"index past end", []ModelPatch{{DB: 3, Old: models[0], New: ok}}},
		{"nil old", []ModelPatch{{DB: 0, Old: nil, New: ok}}},
		{"nil new", []ModelPatch{{DB: 0, Old: models[0], New: nil}}},
		{"duplicate db", []ModelPatch{{DB: 0, Old: models[0], New: ok}, {DB: 0, Old: models[0], New: ok}}},
	}
	for _, tc := range cases {
		if _, err := c.Patch(tc.patches); err == nil {
			t.Errorf("%s: Patch accepted it", tc.name)
		}
	}

	// Old claims a term the snapshot never interned: the patch cannot know
	// which row to edit and must refuse rather than silently diverge.
	stranger := langmodel.New()
	stranger.SetDocs(1)
	stranger.AddTerm("never-compiled", langmodel.TermStats{DF: 1, CTF: 1})
	if _, err := c.Patch([]ModelPatch{{DB: 0, Old: stranger, New: ok}}); err == nil {
		t.Error("Patch accepted an Old model foreign to the snapshot")
	}
}

// TestPatchEmptyPatchList: a no-op patch must still be a valid, equivalent
// snapshot.
func TestPatchEmptyPatchList(t *testing.T) {
	models := threeDBs()
	c := Compile(models)
	p, err := c.Patch(nil)
	if err != nil {
		t.Fatal(err)
	}
	assertPatchEquivalent(t, 0, p, c)
}
