package service

// Tests for incremental recompilation: scope-labeled compile counters, the
// first compile after a restart, the patch set a rebuild derives from the
// previous snapshot, and the equivalence property under random
// sample/register/unregister churn.

import (
	"math"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/randx"
	"repro/internal/selection"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func compileCounters(reg *telemetry.Registry) (full, incr int64) {
	return reg.Counter(`service_snapshot_compiles_total{scope="full"}`).Value(),
		reg.Counter(`service_snapshot_compiles_total{scope="incremental"}`).Value()
}

// TestSnapshotIncrementalResample: replacing one model of a three-database
// federation must rebuild via Patch (scope="incremental"), and the patched
// snapshot must score bit-identically to the map-based gold standard over
// the models it serves.
func TestSnapshotIncrementalResample(t *testing.T) {
	svc, reg := sampledFixture(t)
	if _, err := svc.Rank("stock market data", "cori", 0); err != nil {
		t.Fatal(err)
	}
	if full, incr := compileCounters(reg); full != 1 || incr != 0 {
		t.Fatalf("after first rank: full=%d incremental=%d", full, incr)
	}

	name := svc.Databases()[0].Name
	if _, err := svc.Sample(name, SampleOptions{Docs: 60, Seed: 99}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Rank("stock market data", "cori", 0); err != nil {
		t.Fatal(err)
	}
	if full, incr := compileCounters(reg); full != 1 || incr != 1 {
		t.Fatalf("after resample rank: full=%d incremental=%d, want the rebuild to patch", full, incr)
	}

	requireMapScores(t, svc.snapshot())

	// Unregistering a database and registering and sampling it again before
	// the next rank leaves the served names as they were: the rebuild
	// patches the one replaced model.
	svc.mu.RLock()
	db := svc.entries[name].db
	svc.mu.RUnlock()
	if err := svc.Unregister(name); err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterLocal(name, db); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Sample(name, SampleOptions{Docs: 60, Seed: 123}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Rank("stock market data", "cori", 0); err != nil {
		t.Fatal(err)
	}
	if full, incr := compileCounters(reg); full != 1 || incr != 2 {
		t.Fatalf("after re-registration rank: full=%d incremental=%d, want the rebuild to patch", full, incr)
	}
	requireMapScores(t, svc.snapshot())

	// Membership changes renumber databases: the next rebuild must be full.
	if err := svc.Unregister(name); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Rank("stock market data", "cori", 0); err != nil {
		t.Fatal(err)
	}
	if full, incr := compileCounters(reg); full != 2 || incr != 2 {
		t.Fatalf("after unregister rank: full=%d incremental=%d, want a full recompile", full, incr)
	}
}

// TestSnapshotWarmStart: a service restarted over the same model store
// compiles its first snapshot in full from the stored models, and a
// resample after the restart patches that snapshot (scope="incremental")
// and still scores bit-identically to the map-based scorers. Ranking
// equivalence across the restart is TestPersistenceAcrossRestart's.
func TestSnapshotWarmStart(t *testing.T) {
	modelDir := filepath.Join(t.TempDir(), "models")
	st, err := store.Open(modelDir)
	if err != nil {
		t.Fatal(err)
	}
	svcA, dbs := fixture(t, st)
	for _, db := range dbs {
		if _, err := svcA.Sample(db.Name, SampleOptions{Docs: 50, Seed: 7}); err != nil {
			t.Fatal(err)
		}
	}

	// "Restart": a new service over a reopened store, same registrations.
	st2, err := store.Open(modelDir)
	if err != nil {
		t.Fatal(err)
	}
	svcB := New(analysis.Database(), st2)
	regB := telemetry.NewRegistry()
	svcB.SetMetrics(regB)
	for _, db := range dbs {
		if err := svcB.RegisterLocal(db.Name, db.Index); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svcB.Rank("stock market data", "cori", 0); err != nil {
		t.Fatal(err)
	}
	if full, incr := compileCounters(regB); full != 1 || incr != 0 {
		t.Fatalf("first rank after restart: full=%d incremental=%d, want one full compile", full, incr)
	}
	requireMapScores(t, svcB.snapshot())

	if _, err := svcB.Sample(dbs[0].Name, SampleOptions{Docs: 50, Seed: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := svcB.Rank("stock market data", "cori", 0); err != nil {
		t.Fatal(err)
	}
	if full, incr := compileCounters(regB); full != 1 || incr != 1 {
		t.Fatalf("resample after restart: full=%d incremental=%d, want one patch", full, incr)
	}
	requireMapScores(t, svcB.snapshot())
}

// requireMapScores checks that snap scores bit-identically to the map-based
// gold standard over the models it serves.
func requireMapScores(t *testing.T, snap *snapshotSet) {
	t.Helper()
	query := []string{"stock", "market", "data", "system"}
	ids := snap.compiled.AppendIDs(nil, query)
	scores := make([]float64, snap.compiled.NumDBs())
	for _, alg := range []selection.Algorithm{selection.CORI{}, selection.Gloss{Estimator: selection.GlossSum}} {
		want := alg.Scores(query, snap.models)
		if !snap.compiled.ScoreInto(alg, ids, scores) {
			t.Fatalf("ScoreInto rejected %s", alg.Name())
		}
		for i := range want {
			if math.Float64bits(scores[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: db %d patched score %v != map score %v", alg.Name(), i, scores[i], want[i])
			}
		}
	}
}

// TestSnapshotChurnEquivalence drives a random sample/register/unregister
// sequence and, after every operation, requires the served snapshot —
// whether it was produced by Patch or by a full compile — to score
// bit-identically to the map-based scorers over exactly the models it
// serves. The sequence is seeded, so failures replay.
func TestSnapshotChurnEquivalence(t *testing.T) {
	dbs, err := experiments.Federation(8, 150, 31)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(analysis.Database(), nil)
	reg := telemetry.NewRegistry()
	svc.SetMetrics(reg)
	active := dbs[:4]
	spare := dbs[4:]
	for _, db := range active {
		if err := svc.RegisterLocal(db.Name, db.Index); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Sample(db.Name, SampleOptions{Docs: 30, Seed: 7}); err != nil {
			t.Fatal(err)
		}
	}

	src := randx.New(0xc0ffee)
	queries := [][]string{
		{"stock", "market"},
		{"data", "system", "time"},
		{"people", "world", "no-such-term"},
	}
	for step := 0; step < 15; step++ {
		switch op := src.Intn(4); {
		case op < 2: // resample one active database with a fresh seed
			name := active[src.Intn(len(active))].Name
			if _, err := svc.Sample(name, SampleOptions{Docs: 30, Seed: 100 + uint64(step)}); err != nil {
				t.Fatalf("step %d resample %s: %v", step, name, err)
			}
		case op == 2 && len(spare) > 0: // register + sample a new database
			db := spare[0]
			spare = spare[1:]
			active = append(active, db)
			if err := svc.RegisterLocal(db.Name, db.Index); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Sample(db.Name, SampleOptions{Docs: 30, Seed: 7}); err != nil {
				t.Fatal(err)
			}
		case len(active) > 2: // unregister one
			i := src.Intn(len(active))
			if err := svc.Unregister(active[i].Name); err != nil {
				t.Fatal(err)
			}
			active = append(active[:i], active[i+1:]...)
		}

		snap := svc.snapshot()
		if len(snap.models) != len(snap.names) {
			t.Fatalf("step %d: %d models for %d names", step, len(snap.models), len(snap.names))
		}
		// The dictionary tracks the served models, not the history of
		// resamples: ghost terms are bounded, and the gauge says so.
		terms := snap.compiled.VocabSize()
		if live := selection.Compile(snap.models).VocabSize(); terms > 2*live {
			t.Fatalf("step %d: snapshot interns %d terms for %d live ones", step, terms, live)
		}
		if g := reg.Gauge("service_snapshot_terms").Value(); g != int64(terms) {
			t.Fatalf("step %d: service_snapshot_terms = %d, snapshot has %d", step, g, terms)
		}
		scores := make([]float64, snap.compiled.NumDBs())
		for qi, query := range queries {
			ids := snap.compiled.AppendIDs(nil, query)
			for _, alg := range []selection.Algorithm{
				selection.CORI{},
				selection.Gloss{Estimator: selection.GlossSum, Threshold: 0.2},
				selection.Gloss{Estimator: selection.GlossInd},
			} {
				want := alg.Scores(query, snap.models)
				if !snap.compiled.ScoreInto(alg, ids, scores) {
					t.Fatalf("step %d: ScoreInto rejected %s", step, alg.Name())
				}
				for i := range want {
					if math.Float64bits(scores[i]) != math.Float64bits(want[i]) {
						t.Fatalf("step %d query %d %s: db %s score %v != map score %v",
							step, qi, alg.Name(), snap.names[i], scores[i], want[i])
					}
				}
			}
		}
	}
	full, incr := compileCounters(reg)
	if incr == 0 {
		t.Error("churn never took the incremental path; resamples should patch")
	}
	if full == 0 {
		t.Error("churn never took the full path; membership changes must recompile")
	}
	if total := reg.Counter("service_snapshot_compiles_total").Value(); total != full+incr {
		t.Errorf("scope counters (%d+%d) do not add up to the total %d", full, incr, total)
	}
}
