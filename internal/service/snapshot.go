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
// Rebuilds are incremental when they can be. The previous snapshot keeps
// the names and models it was compiled from, so a rebuild derives what
// changed by itself: when the served names are the same and only a small
// fraction of the models were replaced (a single resample in a 100-DB
// deployment), it patches the previous snapshot's rows for exactly those
// databases (selection.Compiled.Patch — bit-identical to a from-scratch
// compile) instead of rehashing every model. Models are immutable once
// installed, so a replaced model is a changed pointer. Membership changes
// and wide resamples fall back to a full compile.
//
// Nothing compiled is persisted: the model store is the service's only
// durable state, and after a restart the first Rank compiles from the
// models it re-registered.

import (
	"slices"
	"sort"

	"repro/internal/langmodel"
	"repro/internal/selection"
)

// defaultPatchRatio is the fraction of the federation that may be replaced
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

// invalidate marks the published snapshot stale: the served model set
// changed (a registration, an unregistration or a resample), and the next
// rebuild derives what changed from the previous snapshot. Callers must
// hold s.mu (write) — the lock orders the bump after the model-set change
// it reflects, so a reader that observes the new generation under RLock
// also observes the new models.
func (s *Service) invalidate() { s.gen.Add(1) }

// snapshot returns a compiled snapshot no older than the model set at call
// time, rebuilding at most once per generation. The fast path is two
// atomic loads; rebuilds are single-flighted through compileMu so a
// resample storm compiles once, not once per waiting query.
func (s *Service) snapshot() *snapshotSet {
	if snap := s.snap.Load(); snap != nil && snap.epoch == s.gen.Load() {
		return snap
	}
	s.compileMu.Lock()
	defer s.compileMu.Unlock()
	if snap := s.snap.Load(); snap != nil && snap.epoch == s.gen.Load() {
		return snap // another query rebuilt while we waited
	}

	reg := s.Metrics()
	// Collect the models and the generation under one read lock: writers
	// bump gen while holding the write lock, so the pair is consistent —
	// this snapshot is stamped with the generation of exactly the model set
	// it compiles. If a writer changes more after we unlock, gen moves past
	// us and the next query rebuilds again.
	s.mu.RLock()
	gen := s.gen.Load()
	names, models := s.servedModels()
	s.mu.RUnlock()

	stop := reg.Timer("service_snapshot_compile_seconds")
	compiled, scope := s.compile(names, models)
	stop()
	reg.Counter("service_snapshot_compiles_total").Inc()
	reg.Counter(`service_snapshot_compiles_total{scope="` + scope + `"}`).Inc()
	reg.Gauge("service_snapshot_epoch").Set(int64(gen))
	reg.Gauge("service_snapshot_terms").Set(int64(compiled.VocabSize()))
	reg.Gauge("service_snapshot_dbs").Set(int64(compiled.NumDBs()))

	snap := &snapshotSet{epoch: gen, names: names, models: models, compiled: compiled}
	s.snap.Store(snap)
	return snap
}

// compile builds the flat arrays for the collected model set. When the
// previous snapshot serves the same names, it patches exactly the indices
// whose model was replaced, unless more than a tolerable fraction of the
// federation was. The patched result is bit-identical to a full compile
// (selection.Compiled.Patch's contract), so the choice is purely a cost
// decision and never observable through scoring. Returns the compiled set
// and the scope label ("full" or "incremental") for the compile counters.
func (s *Service) compile(names []string, models []*langmodel.Model) (*selection.Compiled, string) {
	prev := s.snap.Load()
	if prev == nil || !slices.Equal(prev.names, names) {
		return selection.Compile(models), "full"
	}
	var patches []selection.ModelPatch
	for i, m := range models {
		if m != prev.models[i] {
			patches = append(patches, selection.ModelPatch{DB: i, Old: prev.models[i], New: m})
		}
	}
	if float64(len(patches)) > defaultPatchRatio*float64(len(names)) {
		return selection.Compile(models), "full"
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

// Epoch returns the current model-set generation. It changes whenever a
// sampling run, registration, or unregistration alters the served models;
// rank flights key on it, so no rank joins a flight from an older set.
func (s *Service) Epoch() uint64 { return s.gen.Load() }
