package service

// Compiled selection snapshots, swapped RCU-style.
//
// Rank used to walk every registered model's hash maps under the service
// read lock on each query. Model sets change rarely (a resample, a
// registration) while selection queries arrive constantly, so the service
// now compiles the model set into a selection.Compiled snapshot and
// publishes it through an atomic pointer: readers Load the pointer and
// score against immutable flat arrays — no service lock, no map lookups —
// while writers simply bump the generation counter and let the next query
// rebuild. Stale snapshots stay valid for readers already holding them
// (grace period by garbage collection, the RCU property), so a resample
// never blocks or corrupts an in-flight Rank.
//
// Rebuilds are incremental when they can be: writers record *which*
// database changed alongside the generation bump, and when only a small
// fraction of the federation moved (a single resample in a 100-DB
// deployment), the next rebuild patches the previous snapshot's rows
// (selection.Compiled.Patch — bit-identical to a from-scratch compile)
// instead of rehashing every model. Membership changes and wide resamples
// fall back to a full compile.
//
// With a snapshot store attached (SetSnapshotStore), each newly compiled
// snapshot is persisted on swap, and LoadSnapshot warm-starts serving from
// disk: the first Rank after a restart scores against the mmapped snapshot
// file without compiling anything.

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/langmodel"
	"repro/internal/selection"
	"repro/internal/store"
)

// defaultPatchRatio is the fraction of the federation that may be dirty
// before a rebuild abandons patching for a full compile. Patching splices
// CSR rows for every term of every changed model; past roughly half the
// databases, rehashing everything is the cheaper and simpler move.
const defaultPatchRatio = 0.5

// snapshotSet is one immutable compiled view of the model set. names[i] is
// the database compiled as index i (sorted, the order rank always used);
// models[i] is the model it was compiled from, kept so the next rebuild
// can diff against it (Patch needs the old model to know which postings
// to remove).
type snapshotSet struct {
	epoch    uint64
	names    []string
	models   []*langmodel.Model
	compiled *selection.Compiled
}

// servedModels returns the databases that have a learned model, sorted by
// name (the order rank has always used), and their models. Callers must
// hold s.mu; the models themselves are immutable once installed and may be
// read after it is released.
func (s *Service) servedModels() ([]string, []*langmodel.Model) {
	names := make([]string, 0, len(s.entries))
	for name, e := range s.entries {
		if e.model != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	models := make([]*langmodel.Model, len(names))
	for i, name := range names {
		models[i] = s.entries[name].model
	}
	return names, models
}

// invalidateAll marks the published snapshot stale for a membership
// change (register/unregister): database indices shift, so the next
// rebuild must compile from scratch. Callers must hold s.mu (write) — the
// lock orders the bump after the model-set change it reflects, so a
// reader that observes the new generation under RLock also observes the
// new models.
func (s *Service) invalidateAll() {
	s.gen.Add(1)
	s.dirtyAll = true
}

// invalidateDB marks the published snapshot stale for a single database
// whose model was replaced in place (a resample). The next rebuild may
// patch just its rows. Callers must hold s.mu (write).
func (s *Service) invalidateDB(name string) {
	s.gen.Add(1)
	if s.dirty == nil {
		s.dirty = make(map[string]bool)
	}
	s.dirty[name] = true
}

// SetSnapshotStore attaches a persistent snapshot store: every snapshot
// the service compiles from then on is saved to the store as it is
// published, and LoadSnapshot can warm-start from whatever the store
// holds.
func (s *Service) SetSnapshotStore(ss *store.SnapshotStore) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapStore = ss
}

// snapshot returns a compiled snapshot no older than the model set at call
// time, rebuilding at most once per generation. The fast path is two
// atomic loads; rebuilds are single-flighted through compileMu so a
// resample storm compiles once, not once per waiting query. Persistence
// happens after compileMu is released: the save is disk I/O, and
// compileMu gates every cold query — holding it across an fsync would
// turn one slow disk into a service-wide stall (the lockheld invariant).
func (s *Service) snapshot() *snapshotSet {
	if snap := s.snap.Load(); snap != nil && snap.epoch == s.gen.Load() {
		return snap
	}
	snap, compiled := s.rebuild()
	if compiled {
		s.persistSnapshot(snap)
	}
	return snap
}

// rebuild compiles and publishes a fresh snapshot under compileMu,
// reporting whether this call did the compiling (false when another
// query's rebuild won the race — that query persists it).
func (s *Service) rebuild() (*snapshotSet, bool) {
	s.compileMu.Lock()
	defer s.compileMu.Unlock()
	if snap := s.snap.Load(); snap != nil && snap.epoch == s.gen.Load() {
		return snap, false // another query rebuilt while we waited
	}

	reg := s.Metrics()
	// Collect the models, the generation, and the dirty set under one
	// write lock: writers bump gen while holding the lock, so the triple
	// is consistent — this snapshot is stamped with the generation of
	// exactly the model set it compiles, and the dirt it consumes is
	// exactly the dirt that generation accumulated. If a writer dirties
	// more after we unlock, gen moves past us and the next query rebuilds
	// again.
	s.mu.Lock()
	gen := s.gen.Load()
	names, models := s.servedModels()
	dirty, dirtyAll := s.dirty, s.dirtyAll
	s.dirty, s.dirtyAll = nil, false
	s.mu.Unlock()

	stop := reg.Timer("service_snapshot_compile_seconds")
	compiled, scope := s.compile(names, models, dirty, dirtyAll)
	stop()
	reg.Counter("service_snapshot_compiles_total").Inc()
	reg.Counter(`service_snapshot_compiles_total{scope="` + scope + `"}`).Inc()
	reg.Gauge("service_snapshot_epoch").Set(int64(gen))
	reg.Gauge("service_snapshot_terms").Set(int64(compiled.VocabSize()))
	reg.Gauge("service_snapshot_dbs").Set(int64(compiled.NumDBs()))

	snap := &snapshotSet{epoch: gen, names: names, models: models, compiled: compiled}
	s.snap.Store(snap)
	return snap, true
}

// compile builds the flat arrays for the collected model set, patching
// the previous snapshot when only a tolerable fraction of an unchanged
// membership is dirty. The patched result is bit-identical to a full
// compile (selection.Compiled.Patch's contract), so the choice is purely
// a cost decision and never observable through scoring. Returns the
// compiled set and the scope label ("full" or "incremental") for the
// compile counters.
func (s *Service) compile(names []string, models []*langmodel.Model, dirty map[string]bool, dirtyAll bool) (*selection.Compiled, string) {
	prev := s.snap.Load()
	if prev == nil || dirtyAll || len(dirty) == 0 ||
		float64(len(dirty)) > defaultPatchRatio*float64(len(names)) ||
		!slices.Equal(prev.names, names) {
		return selection.Compile(models), "full"
	}
	changed := make([]string, 0, len(dirty))
	for name := range dirty {
		changed = append(changed, name)
	}
	sort.Strings(changed)
	patches := make([]selection.ModelPatch, 0, len(changed))
	for _, name := range changed {
		i := sort.SearchStrings(names, name)
		if i >= len(names) || names[i] != name {
			// Dirty entry no longer served (raced with an unregister whose
			// dirtyAll a later generation will consume): patching has no
			// row to target, so compile from scratch.
			return selection.Compile(models), "full"
		}
		patches = append(patches, selection.ModelPatch{DB: i, Old: prev.models[i], New: models[i]})
	}
	compiled, err := prev.compiled.Patch(patches)
	if err != nil {
		// A patch failure means the previous snapshot disagrees with the
		// models we diffed — recover by recompiling rather than serving
		// nothing.
		s.log().Warn("incremental recompile failed; compiling from scratch", "err", err.Error())
		return selection.Compile(models), "full"
	}
	return compiled, "incremental"
}

// persistSnapshot saves a freshly published snapshot to the attached
// store. Persistence is best effort — the snapshot already serves from
// memory, so a failed save costs the next restart a recompile, nothing
// more. It runs outside compileMu, so two successive rebuilds can race
// here: persistMu serializes the saves (SnapshotStore forbids concurrent
// Save), and the epoch guard drops a late save of an older snapshot
// rather than letting it clobber a newer one already on disk.
func (s *Service) persistSnapshot(snap *snapshotSet) {
	s.mu.RLock()
	ss := s.snapStore
	s.mu.RUnlock()
	if ss == nil {
		return
	}
	reg := s.Metrics()
	fps := make([]uint64, len(snap.models))
	for i, m := range snap.models {
		fps[i] = m.Fingerprint()
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.persisted && snap.epoch <= s.persistedEpoch {
		return // a newer (or this very) snapshot is already on disk
	}
	//lint:ignore lockheld persistMu exists solely to serialize Save against a racing later compile; it nests inside no other lock and no query-serving path can wait on it
	n, err := ss.Save(&selection.Snapshot{
		Epoch:        snap.epoch,
		Names:        snap.names,
		Fingerprints: fps,
		Compiled:     snap.compiled,
	})
	if err != nil {
		reg.Counter("service_snapshot_persist_errors_total").Inc()
		s.log().Warn("snapshot persist failed", "err", err.Error())
		return
	}
	s.persisted, s.persistedEpoch = true, snap.epoch
	reg.Counter("service_snapshot_persists_total").Inc()
	reg.Gauge("service_snapshot_bytes").Set(n)
}

// LoadSnapshot warm-starts query serving from the attached store: it
// loads, verifies, and publishes the persisted snapshot, so the first
// Rank after a restart scores immediately instead of compiling the model
// set. The snapshot is rejected — and the service left to compile on
// first use, exactly as if none existed — unless it describes precisely
// the currently served model set: same database names, and per-database
// model fingerprints matching the models the registry loaded (a crash
// between a model write and the snapshot write leaves the snapshot one
// model behind; fingerprints catch that).
func (s *Service) LoadSnapshot() error {
	s.mu.RLock()
	ss := s.snapStore
	s.mu.RUnlock()
	if ss == nil {
		return errors.New("service: no snapshot store attached")
	}
	reg := s.Metrics()
	stop := reg.Timer("service_snapshot_load_seconds")
	snap, size, err := ss.Load()
	stop()
	if err != nil {
		reg.Counter("service_snapshot_load_errors_total").Inc()
		return fmt.Errorf("service: load snapshot: %w", err)
	}

	// Verify and publish under the compile lock so a concurrent first
	// query cannot compile and swap between our check and our install.
	s.compileMu.Lock()
	defer s.compileMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	names, models := s.servedModels()
	if !slices.Equal(names, snap.Names) {
		reg.Counter("service_snapshot_load_errors_total").Inc()
		return fmt.Errorf("service: snapshot describes databases %v, registry serves %v (stale snapshot)",
			snap.Names, names)
	}
	if len(snap.Fingerprints) != len(models) {
		reg.Counter("service_snapshot_load_errors_total").Inc()
		return fmt.Errorf("service: snapshot carries %d fingerprints for %d databases",
			len(snap.Fingerprints), len(models))
	}
	for i, m := range models {
		if got := m.Fingerprint(); got != snap.Fingerprints[i] {
			reg.Counter("service_snapshot_load_errors_total").Inc()
			return fmt.Errorf("service: model %q changed since the snapshot was written (stale snapshot)",
				names[i])
		}
	}

	gen := s.gen.Load()
	s.snap.Store(&snapshotSet{epoch: gen, names: snap.Names, models: models, compiled: snap.Compiled})
	s.dirty, s.dirtyAll = nil, false
	reg.Gauge("service_snapshot_bytes").Set(size)
	reg.Gauge("service_snapshot_epoch").Set(int64(gen))
	reg.Gauge("service_snapshot_terms").Set(int64(snap.Compiled.VocabSize()))
	reg.Gauge("service_snapshot_dbs").Set(int64(snap.Compiled.NumDBs()))
	return nil
}

// Epoch returns the current model-set generation. It changes whenever a
// sampling run, registration, or unregistration alters the served models;
// rank flights key on it, so no rank joins a flight from an older set.
func (s *Service) Epoch() uint64 { return s.gen.Load() }
