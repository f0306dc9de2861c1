package service

// Tests for snapshot persistence and incremental recompilation: warm
// starts that serve without compiling, scope-labeled compile counters,
// fingerprint staleness rejection, and the equivalence property under
// random sample/register/unregister churn.

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/langmodel"
	"repro/internal/randx"
	"repro/internal/selection"
	"repro/internal/store"
	"repro/internal/telemetry"
)

func snapshotStore(t *testing.T) *store.SnapshotStore {
	t.Helper()
	ss, err := store.OpenSnapshots(filepath.Join(t.TempDir(), "snap"))
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

func compileCounters(reg *telemetry.Registry) (full, incr int64) {
	return reg.Counter(`service_snapshot_compiles_total{scope="full"}`).Value(),
		reg.Counter(`service_snapshot_compiles_total{scope="incremental"}`).Value()
}

// TestSnapshotWarmStart is the tentpole acceptance path: service A
// compiles and persists; service B — a fresh process over the same model
// store — adopts the snapshot at startup and serves its first Rank
// without compiling anything, with bit-identical results.
func TestSnapshotWarmStart(t *testing.T) {
	modelDir := filepath.Join(t.TempDir(), "models")
	st, err := store.Open(modelDir)
	if err != nil {
		t.Fatal(err)
	}
	ss := snapshotStore(t)

	svcA, dbs := fixture(t, st)
	regA := telemetry.NewRegistry()
	svcA.SetMetrics(regA)
	svcA.SetSnapshotStore(ss)
	for _, db := range dbs {
		if _, err := svcA.Sample(db.Name, SampleOptions{Docs: 50, Seed: 7}); err != nil {
			t.Fatal(err)
		}
	}
	wantRank, err := svcA.Rank("stock market data", "cori", 0)
	if err != nil {
		t.Fatal(err)
	}
	if regA.Counter("service_snapshot_persists_total").Value() != 1 {
		t.Fatal("compiled snapshot was not persisted on publish")
	}

	// "Restart": a new service over the same stores, same registrations.
	st2, err := store.Open(modelDir)
	if err != nil {
		t.Fatal(err)
	}
	svcB := New(analysis.Database(), st2)
	regB := telemetry.NewRegistry()
	svcB.SetMetrics(regB)
	svcB.SetSnapshotStore(ss)
	for _, db := range dbs {
		if err := svcB.RegisterLocal(db.Name, db.Index); err != nil {
			t.Fatal(err)
		}
	}
	if err := svcB.LoadSnapshot(); err != nil {
		t.Fatalf("warm start rejected: %v", err)
	}
	gotRank, err := svcB.Rank("stock market data", "cori", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRank, wantRank) {
		t.Fatalf("warm-started ranking diverges:\n%+v\n%+v", gotRank, wantRank)
	}
	if full, incr := compileCounters(regB); full != 0 || incr != 0 ||
		regB.Counter("service_snapshot_compiles_total").Value() != 0 {
		t.Fatalf("warm start compiled (full=%d incremental=%d); the first Rank must serve from the loaded snapshot", full, incr)
	}
	if regB.Gauge("service_snapshot_bytes").Value() <= 0 {
		t.Fatal("snapshot_bytes gauge not set by LoadSnapshot")
	}

	// A resample now patches over the loaded (mmapped) base, which the
	// patched snapshot keeps sharing; it must still score as the map scorers
	// do over the models it serves.
	if _, err := svcB.Sample(dbs[0].Name, SampleOptions{Docs: 50, Seed: 8}); err != nil {
		t.Fatal(err)
	}
	snap := svcB.snapshot()
	if full, incr := compileCounters(regB); full != 0 || incr != 1 {
		t.Fatalf("resample after warm start: full=%d incremental=%d, want one patch", full, incr)
	}
	query := []string{"stock", "market", "data"}
	scores := make([]float64, snap.compiled.NumDBs())
	snap.compiled.ScoreInto(selection.CORI{}, snap.compiled.AppendIDs(nil, query), scores)
	for i, want := range (selection.CORI{}).Scores(query, snap.models) {
		if math.Float64bits(scores[i]) != math.Float64bits(want) {
			t.Fatalf("db %d: score %v patched over the loaded snapshot != map score %v", i, scores[i], want)
		}
	}
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

	// Bit-identity of the patched snapshot against the map scorers.
	snap := svc.snapshot()
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

	// Membership changes renumber databases: the next rebuild must be full.
	if err := svc.Unregister(name); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Rank("stock market data", "cori", 0); err != nil {
		t.Fatal(err)
	}
	if full, incr := compileCounters(reg); full != 2 || incr != 1 {
		t.Fatalf("after unregister rank: full=%d incremental=%d, want a full recompile", full, incr)
	}
}

// TestSnapshotStaleFingerprintRejected: a model rewritten after the
// snapshot was persisted (the crash-between-writes scenario) must fail
// verification at load, forcing a cold compile instead of serving stale
// statistics.
func TestSnapshotStaleFingerprintRejected(t *testing.T) {
	modelDir := filepath.Join(t.TempDir(), "models")
	st, err := store.Open(modelDir)
	if err != nil {
		t.Fatal(err)
	}
	ss := snapshotStore(t)
	svcA, dbs := fixture(t, st)
	svcA.SetSnapshotStore(ss)
	for _, db := range dbs {
		if _, err := svcA.Sample(db.Name, SampleOptions{Docs: 50, Seed: 7}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svcA.Rank("stock market data", "cori", 0); err != nil {
		t.Fatal(err)
	}

	// One model moves on without the snapshot.
	moved := langmodel.New()
	moved.SetDocs(3)
	moved.AddTerm("drifted", langmodel.TermStats{DF: 1, CTF: 1})
	if err := st.Put(dbs[0].Name, moved.Normalize(analysis.Database())); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(modelDir)
	if err != nil {
		t.Fatal(err)
	}
	svcB := New(analysis.Database(), st2)
	regB := telemetry.NewRegistry()
	svcB.SetMetrics(regB)
	svcB.SetSnapshotStore(ss)
	for _, db := range dbs {
		if err := svcB.RegisterLocal(db.Name, db.Index); err != nil {
			t.Fatal(err)
		}
	}
	err = svcB.LoadSnapshot()
	if err == nil || !strings.Contains(err.Error(), "changed since") {
		t.Fatalf("stale snapshot accepted (err = %v)", err)
	}
	if regB.Counter("service_snapshot_load_errors_total").Value() != 1 {
		t.Fatal("load error not counted")
	}
	// The cold path still works and recompiles from the real models.
	if _, err := svcB.Rank("stock market data", "cori", 0); err != nil {
		t.Fatal(err)
	}
	if regB.Counter(`service_snapshot_compiles_total{scope="full"}`).Value() != 1 {
		t.Fatal("cold start did not compile")
	}
}

// TestSnapshotRefusedFileColdStarts: a snapshot file in a format this
// build refuses — here a version 1 file, whose header checksum is intact —
// is a cache miss, not an outage. LoadSnapshot errors, the first Rank
// compiles from the models and scores as the map scorer does, and that
// publish replaces the file with a current-version one.
func TestSnapshotRefusedFileColdStarts(t *testing.T) {
	modelDir := filepath.Join(t.TempDir(), "models")
	st, err := store.Open(modelDir)
	if err != nil {
		t.Fatal(err)
	}
	ss := snapshotStore(t)
	svcA, dbs := fixture(t, st)
	svcA.SetSnapshotStore(ss)
	for _, db := range dbs {
		if _, err := svcA.Sample(db.Name, SampleOptions{Docs: 50, Seed: 7}); err != nil {
			t.Fatal(err)
		}
	}
	wantRank, err := svcA.Rank("stock market data", "cori", 0)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(ss.Dir(), store.SnapshotFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(data[8:], 1)
	binary.LittleEndian.PutUint32(data[56:], crc32.Checksum(data[:56], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(modelDir)
	if err != nil {
		t.Fatal(err)
	}
	svcB := New(analysis.Database(), st2)
	regB := telemetry.NewRegistry()
	svcB.SetMetrics(regB)
	svcB.SetSnapshotStore(ss)
	for _, db := range dbs {
		if err := svcB.RegisterLocal(db.Name, db.Index); err != nil {
			t.Fatal(err)
		}
	}
	if err := svcB.LoadSnapshot(); err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 1") {
		t.Fatalf("version 1 snapshot: LoadSnapshot err = %v", err)
	}
	gotRank, err := svcB.Rank("stock market data", "cori", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRank, wantRank) {
		t.Fatalf("cold-started ranking diverges:\n%+v\n%+v", gotRank, wantRank)
	}
	snap := svcB.snapshot()
	query := []string{"stock", "market", "data"}
	scores := make([]float64, snap.compiled.NumDBs())
	snap.compiled.ScoreInto(selection.CORI{}, snap.compiled.AppendIDs(nil, query), scores)
	for i, want := range (selection.CORI{}).Scores(query, snap.models) {
		if math.Float64bits(scores[i]) != math.Float64bits(want) {
			t.Fatalf("db %d: cold-compiled score %v != map score %v", i, scores[i], want)
		}
	}
	if full, incr := compileCounters(regB); full != 1 || incr != 0 {
		t.Fatalf("cold start: full=%d incremental=%d, want one full compile", full, incr)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != selection.SnapshotVersion {
		t.Fatalf("stored snapshot is version %d after the cold publish, want %d", v, selection.SnapshotVersion)
	}
	if _, _, err := ss.Load(); err != nil {
		t.Fatalf("rewritten snapshot does not load: %v", err)
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

// TestSnapshotPersistOnSwap: with persistence on, each published rebuild
// replaces the stored snapshot; a service restarted mid-sequence adopts
// the newest one.
func TestSnapshotPersistOnSwap(t *testing.T) {
	svc, reg := sampledFixture(t)
	ss := snapshotStore(t)
	svc.SetSnapshotStore(ss)

	if _, err := svc.Rank("stock market data", "cori", 0); err != nil {
		t.Fatal(err)
	}
	name := svc.Databases()[0].Name
	if _, err := svc.Sample(name, SampleOptions{Docs: 40, Seed: 55}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Rank("stock market data", "cori", 0); err != nil {
		t.Fatal(err)
	}
	if persists := reg.Counter("service_snapshot_persists_total").Value(); persists != 2 {
		t.Fatalf("persists = %d, want one per published rebuild", persists)
	}
	saved, size, err := ss.Load()
	if err != nil {
		t.Fatal(err)
	}
	if saved.Epoch != svc.Epoch() {
		t.Fatalf("persisted epoch %d, service at %d", saved.Epoch, svc.Epoch())
	}
	if reg.Gauge("service_snapshot_bytes").Value() != size {
		t.Fatalf("snapshot_bytes gauge %d, snapshot file %d bytes",
			reg.Gauge("service_snapshot_bytes").Value(), size)
	}
}

// TestSnapshotLoadWithoutStore: LoadSnapshot without an attached store is
// a configuration error, reported as such.
func TestSnapshotLoadWithoutStore(t *testing.T) {
	svc, _ := fixture(t, nil)
	if err := svc.LoadSnapshot(); err == nil {
		t.Fatal("LoadSnapshot succeeded with no store attached")
	}
}
