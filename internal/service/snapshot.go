package service

// The read path, and the served model set it reads.
//
// The service is split along one RCU pointer. The write path (service.go)
// changes the served models under the registry lock and publishes each
// change as a new immutable servedSet through an atomic pointer. The read
// path is the reader type below: it holds that pointer and its own state,
// and no field through which it could reach the registry or its lock, so
// a rank never waits behind a writer. A set stays valid for every reader
// still holding it (grace period by garbage collection, the RCU property).
//
// The reader compiles the published set into a selection.Compiled snapshot
// on the first rank after a change. The previous snapshot points at the
// set it was compiled from, so a rebuild derives what changed by itself:
// when the served names are the same and only a small fraction of the
// models were replaced (models are immutable once installed, so a replaced
// model is a changed pointer), it patches the previous snapshot's rows for
// exactly those databases (selection.Compiled.Patch, bit-identical to a
// full compile). Membership changes and wide resamples compile in full.
// Nothing compiled is persisted: after a restart the first Rank compiles
// from the models the service re-registered.

import (
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/admission"
	"repro/internal/analysis"
	"repro/internal/langmodel"
	"repro/internal/selection"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// defaultPatchRatio is the fraction of the federation that may be replaced
// before a rebuild abandons patching for a full compile. Patching splices
// CSR rows for every term of every changed model; past roughly half the
// databases, rehashing everything is the cheaper and simpler move.
const defaultPatchRatio = 0.5

// servedSet is one published, immutable model set: names[i] (sorted, the
// order rank has always used) serves models[i]. epoch counts publications.
type servedSet struct {
	epoch  uint64
	names  []string
	models []*langmodel.Model
}

// with returns the set that serves m under name (nil: nothing) and is
// otherwise s, one epoch later. It copies s and inserts, replaces or
// deletes at the binary-searched index, so a change costs O(n) and the
// names stay sorted without a sort.
func (s *servedSet) with(name string, m *langmodel.Model) *servedSet {
	i, found := slices.BinarySearch(s.names, name)
	next := &servedSet{epoch: s.epoch + 1, names: s.names, models: slices.Clone(s.models)}
	switch {
	case found && m != nil:
		next.models[i] = m
	case found:
		next.names = slices.Delete(slices.Clone(s.names), i, i+1)
		next.models = slices.Delete(next.models, i, i+1)
	case m != nil:
		next.names = slices.Insert(slices.Clone(s.names), i, name)
		next.models = slices.Insert(next.models, i, m)
	}
	return next
}

// snapshotSet is the compiled view of one served set. It keeps the set so
// the next rebuild can diff against it (Patch needs the old model to know
// which postings to remove).
type snapshotSet struct {
	*servedSet
	compiled *selection.Compiled
}

// reader is the service's read path. Its instruments are atomic pointers
// so that installing a registry or logger never makes a rank wait.
type reader struct {
	analyzer analysis.Analyzer
	served   atomic.Pointer[servedSet]
	snap     atomic.Pointer[snapshotSet]
	metrics  atomic.Pointer[telemetry.Registry]
	logger   atomic.Pointer[slog.Logger]

	// gate is the admission controller for the rank endpoints (nil, the
	// default, admits everything; see SetAdmission and DESIGN.md §14).
	gate atomic.Pointer[admission.Gate]

	// compileMu single-flights rebuilds, and flights single-flights
	// identical in-flight rank work across every serving path — GET /rank,
	// POST /rank/batch (buffered or streamed) and the cluster shard RPCs.
	compileMu sync.Mutex
	flights   *serving.Flights
}

// Metrics returns the installed registry (nil when uninstrumented).
func (r *reader) Metrics() *telemetry.Registry { return r.metrics.Load() }

// log returns the current logger.
func (r *reader) log() *slog.Logger { return r.logger.Load() }

// Epoch returns the epoch of the published model set. It changes whenever
// a sampling run, registration, or unregistration alters the served
// models; rank flights key on it, so no rank joins a flight from an older
// set.
func (r *reader) Epoch() uint64 { return r.served.Load().epoch }

// snapshot returns a compiled snapshot of the set published at call time
// or a later one, rebuilding at most once per publication. The fast path
// is two atomic loads; rebuilds are single-flighted through compileMu so a
// resample storm compiles once, not once per waiting query.
func (r *reader) snapshot() *snapshotSet {
	if snap := r.snap.Load(); snap != nil && snap.servedSet == r.served.Load() {
		return snap
	}
	r.compileMu.Lock()
	defer r.compileMu.Unlock()
	served := r.served.Load()
	if snap := r.snap.Load(); snap != nil && snap.servedSet == served {
		return snap // another query rebuilt while we waited
	}

	reg := r.Metrics()
	stop := reg.Timer("service_snapshot_compile_seconds")
	compiled, scope := r.compile(served)
	stop()
	reg.Counter("service_snapshot_compiles_total").Inc()
	reg.Counter(`service_snapshot_compiles_total{scope="` + scope + `"}`).Inc()
	reg.Gauge("service_snapshot_epoch").Set(int64(served.epoch))
	reg.Gauge("service_snapshot_terms").Set(int64(compiled.VocabSize()))
	reg.Gauge("service_snapshot_dbs").Set(int64(compiled.NumDBs()))

	snap := &snapshotSet{servedSet: served, compiled: compiled}
	r.snap.Store(snap)
	return snap
}

// compile builds the flat arrays for a served set. When the previous
// snapshot serves the same names, it patches exactly the indices whose
// model was replaced, unless more than a tolerable fraction of the
// federation was. The patched result is bit-identical to a full compile
// (selection.Compiled.Patch's contract), so the choice is purely a cost
// decision and never observable through scoring. Returns the compiled set
// and the scope label ("full" or "incremental") for the compile counters.
func (r *reader) compile(served *servedSet) (*selection.Compiled, string) {
	prev := r.snap.Load()
	if prev == nil || !slices.Equal(prev.names, served.names) {
		return selection.Compile(served.models), "full"
	}
	var patches []selection.ModelPatch
	for i, m := range served.models {
		if m != prev.models[i] {
			patches = append(patches, selection.ModelPatch{DB: i, Old: prev.models[i], New: m})
		}
	}
	if float64(len(patches)) > defaultPatchRatio*float64(len(served.names)) {
		return selection.Compile(served.models), "full"
	}
	compiled, err := prev.compiled.Patch(patches)
	if err != nil {
		// A patch failure means the previous snapshot disagrees with the
		// models we diffed — recover by recompiling rather than serving
		// nothing.
		r.log().Warn("incremental recompile failed; compiling from scratch", "err", err.Error())
		return selection.Compile(served.models), "full"
	}
	return compiled, "incremental"
}
