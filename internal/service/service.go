// Package service assembles the pieces into the thing the paper is
// actually about: a *database selection service* (§1). The service keeps a
// registry of searchable text databases, learns a language model for each
// by query-based sampling (no cooperation needed — remote databases are
// reached through netsearch), persists the models, and answers selection
// queries by ranking the registered databases with CORI or GlOSS.
//
// The service applies its own, uniform analysis pipeline to everything it
// learns — the control over representation that §3 argues is a key
// advantage of sampling over cooperative model exchange.
package service

import (
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"

	"repro/internal/admission"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/langmodel"
	"repro/internal/netsearch"
	"repro/internal/parallel"
	"repro/internal/serving"
	"repro/internal/store"
	"repro/internal/summarize"
	"repro/internal/telemetry"
)

// The serving sentinels are declared once, in internal/serving, beside the
// HTTP status mapping that reads them; these are the same values under the
// names this package has always exported, so errors.Is works across tiers.
var (
	// ErrUnknownDatabase is returned for operations on unregistered names.
	ErrUnknownDatabase = serving.ErrUnknownDatabase
	// ErrInvalid marks arguments the caller got wrong (400 over HTTP).
	ErrInvalid = serving.ErrInvalid
	// ErrNoModels is returned by Rank when no registered database has a
	// learned model yet (503 over HTTP).
	ErrNoModels = serving.ErrNoModels
	// ErrExists marks a registration of a name that is already registered.
	ErrExists = serving.ErrExists
)

// ErrCircuitOpen is reported by SampleAll for databases whose circuit
// breaker has tripped. A direct Sample call is the half-open probe: it
// always attempts the database and closes the circuit on success.
var ErrCircuitOpen = errors.New("service: circuit open")

// DefaultTripThreshold is the number of consecutive sampling failures
// after which a database's circuit breaker opens.
const DefaultTripThreshold = 3

// DBStatus describes one registered database.
type DBStatus struct {
	// Name is the registry key.
	Name string `json:"name"`
	// Addr is the netsearch address for remote databases ("" for local).
	Addr string `json:"addr,omitempty"`
	// HasModel reports whether a learned model is available.
	HasModel bool `json:"has_model"`
	// Terms, SampledDocs and Queries summarize the learned model and the
	// cost of acquiring it.
	Terms       int `json:"terms"`
	SampledDocs int `json:"sampled_docs"`
	Queries     int `json:"queries"`
	// LastError records the most recent sampling failure, if any.
	LastError string `json:"last_error,omitempty"`
	// ConsecutiveFailures counts sampling failures since the last success.
	ConsecutiveFailures int `json:"consecutive_failures,omitempty"`
	// CircuitOpen reports that the breaker has tripped: SampleAll skips
	// this database until a direct Sample succeeds.
	CircuitOpen bool `json:"circuit_open,omitempty"`
}

// SampleOptions parameterize a sampling run for one database.
type SampleOptions struct {
	// Docs is the document budget (default 300).
	Docs int `json:"docs"`
	// PerQuery is N, documents examined per query (default 4).
	PerQuery int `json:"per_query"`
	// Seed makes the run reproducible (default 1).
	Seed uint64 `json:"seed"`
	// InitialTerm seeds the first query. If empty, the term is drawn from
	// core's fixed built-in model of common words — never from the models
	// this process serves, so a database learns the same model on any
	// shard and in any sampling order.
	InitialTerm string `json:"initial_term"`
	// Extend continues the previous sampling run instead of starting
	// over: Docs more documents are added to the existing sample — the
	// paper's "sampling can be continued" property (§5). Only a run held in
	// this process can be continued: a database whose model was loaded
	// from the store refuses Extend (ErrInvalid), and one with no model
	// takes a fresh sample.
	Extend bool `json:"extend"`
	// TraceID correlates the run's log lines and netsearch wire frames
	// with the request that triggered it. The HTTP layer fills it from
	// the request's trace ID; it is never decoded from a client body.
	TraceID string `json:"-"`
}

func (o SampleOptions) withDefaults() SampleOptions {
	if o.Docs <= 0 {
		o.Docs = 300
	}
	if o.PerQuery <= 0 {
		o.PerQuery = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// entry is one registered database.
type entry struct {
	name string

	// run serializes sampling runs on this entry: a 1-buffered channel
	// semaphore (acquire by send, release by receive). Without it, two
	// concurrent Sample("x") calls would interleave their lastRun/model
	// writes and corrupt a later Extend. It is deliberately not a mutex:
	// the guard is held across the entire network sampling run, and the
	// lockheld discipline reserves mutexes for memory — nothing blocking
	// may happen under one. It is always acquired before the service
	// mutex, never while holding it.
	run chan struct{}

	db      core.Database // set at registration: the local database or the remote's client
	model   *langmodel.Model
	lastRun *core.Result // raw result, kept so Extend can resume
	stats   DBStatus
}

// Service is a database selection service. Create it with New; all methods
// are safe for concurrent use. Service itself is the write path: the
// registry, sampling and the store. It publishes the served model set that
// its embedded read path (reader, snapshot.go) ranks against; the read
// path takes no lock of the registry's.
type Service struct {
	reader
	st *store.Store // optional persistence

	mu       sync.RWMutex
	entries  map[string]*entry
	dialOpts netsearch.Options

	// persist orders every store access with the registry change it
	// belongs to: a registration's load and publication, a run's commit
	// and store write, an unregistration and its store delete. A
	// 1-buffered channel semaphore, like entry.run, because it is held
	// across disk I/O. It is acquired after an entry's run guard and
	// before mu.
	persist chan struct{}
}

// New returns a service that normalizes learned models with the given
// analyzer. st may be nil (no persistence); when non-nil, previously
// stored models are loaded for databases as they are registered.
func New(an analysis.Analyzer, st *store.Store) *Service {
	s := &Service{
		st:      st,
		entries: make(map[string]*entry),
		persist: make(chan struct{}, 1),
	}
	s.analyzer = an
	s.logger.Store(telemetry.NopLogger())
	s.served.Store(new(servedSet))
	s.flights = serving.NewFlights("service", s.Metrics)
	return s
}

// publish makes m the model the read path serves under name (nil: none)
// by publishing a new served set built from the current one. Callers hold
// mu for writing, which orders publications like the registry changes
// they reflect.
func (s *Service) publish(name string, m *langmodel.Model) {
	s.served.Store(s.served.Load().with(name, m))
}

// The result cache this sized is gone and the call does nothing. Its only
// caller is benchmark/bench/layers.go:470; it goes when that line does
// (ROADMAP item 10(f)).
func (s *Service) SetRankCacheSize(int) {}

// SetAdmission installs admission control on the rank endpoints (GET
// /rank, POST /rank/batch): an in-flight cap past which arrivals are shed
// (a zero cfg removes the gate). The gate's telemetry lands in the registry installed
// at call time, so install metrics first. Direct Rank/RankBatch calls are
// not gated: admission protects the serving surface, not embedded use.
func (s *Service) SetAdmission(cfg admission.Config) {
	s.gate.Store(admission.New(cfg, s.Metrics(), "service"))
}

// SetMetrics installs a telemetry registry. Every sampling run, selection
// query and HTTP request from now on is counted there, and the HTTP
// handler additionally serves /metrics and /debug/vars. The clients of
// databases registered from now on inherit the registry (unless
// SetDialOptions already set one explicitly). nil reverts to no
// instrumentation.
func (s *Service) SetMetrics(reg *telemetry.Registry) {
	s.metrics.Store(reg)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dialOpts.Metrics == nil || reg == nil {
		s.dialOpts.Metrics = reg
	}
}

// SetLogger installs a structured logger for request and sampling-run
// log lines (key=value via slog; see telemetry.NewLogger), inherited by
// the clients of databases registered from now on. nil reverts to
// discarding.
func (s *Service) SetLogger(lg *slog.Logger) {
	if lg == nil {
		lg = telemetry.NopLogger()
	}
	s.logger.Store(lg)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dialOpts.Logger == nil {
		s.dialOpts.Logger = lg
	}
}

// SetDialOptions configures the fault tolerance (per-operation deadline,
// retry/backoff policy) of the clients of remote databases registered from
// now on; databases already registered keep their options.
func (s *Service) SetDialOptions(opts netsearch.Options) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dialOpts = opts
}

// Register adds a remote database reachable at a netsearch address. Its
// client is built here and dials on first sampling; the entry owns it
// until Unregister or Close. If a persisted model exists for the name it
// is loaded immediately.
func (s *Service) Register(name, addr string) error {
	s.mu.RLock()
	opts := s.dialOpts
	s.mu.RUnlock()
	return s.register(name, addr, netsearch.NewClient(addr, opts))
}

// RegisterLocal adds an in-process database (used by tests, examples, and
// embedded deployments).
func (s *Service) RegisterLocal(name string, db core.Database) error {
	if db == nil {
		return errors.New("service: nil database")
	}
	return s.register(name, "", db)
}

// register publishes a new entry for db under name.
func (s *Service) register(name, addr string, db core.Database) error {
	if err := serving.ValidateName(name); err != nil {
		return err
	}
	e := &entry{
		name:  name,
		run:   make(chan struct{}, 1),
		db:    db,
		stats: DBStatus{Name: name, Addr: addr},
	}
	// Load any persisted model under the store guard, so no store write or
	// delete of the name lands between the load and the publication, but
	// before taking the registry lock: the store read is disk I/O, which
	// must never run under mu (a duplicate registration wastes one read —
	// fine for an administrative call). A model that cannot be read is
	// sampled anew.
	s.persist <- struct{}{}
	defer func() { <-s.persist }()
	if s.st != nil {
		if m, err := s.st.Get(name); err == nil {
			e.model = m
			e.stats.HasModel = true
			e.stats.Terms = m.VocabSize()
			e.stats.SampledDocs = m.Docs()
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.entries[name]; dup {
		return fmt.Errorf("service: database %q %w", name, ErrExists)
	}
	s.entries[name] = e
	if e.model != nil {
		s.publish(name, e.model)
	}
	return nil
}

// Unregister removes a database and its persisted model, and closes a
// remote database's connection so a remote run in flight fails fast. It
// holds the store guard from the unpublish through the store delete: a run
// that committed before it has finished its store write, one that had not
// finds its entry gone and writes nothing, and a registration of the name
// loads from the store before the unpublish or after the delete, so the
// live service and a restarted one agree.
func (s *Service) Unregister(name string) error {
	s.persist <- struct{}{}
	defer func() { <-s.persist }()
	s.mu.Lock()
	e, ok := s.entries[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("service: %q: %w", name, ErrUnknownDatabase)
	}
	delete(s.entries, name)
	if e.model != nil {
		s.publish(name, nil)
	}
	s.mu.Unlock()
	if c, ok := e.db.(*netsearch.Client); ok {
		c.Close()
	}
	if s.st == nil {
		return nil
	}
	return s.st.Delete(name)
}

// Databases returns the status of every registered database, sorted by
// name.
func (s *Service) Databases() []DBStatus {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]DBStatus, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e.stats)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// recordFailure updates an entry's health counters after a failed sampling
// run, tripping the circuit breaker once the consecutive failure count
// reaches the threshold. Caller holds mu.
func (s *Service) recordFailure(e *entry, err error) {
	e.stats.LastError = err.Error()
	e.stats.ConsecutiveFailures++
	if e.stats.ConsecutiveFailures >= DefaultTripThreshold {
		if !e.stats.CircuitOpen {
			s.Metrics().Counter("service_breaker_trips_total").Inc()
			s.log().Warn("circuit breaker tripped",
				"db", e.name, "consecutive_failures", e.stats.ConsecutiveFailures)
		}
		e.stats.CircuitOpen = true
	}
}

// Sample learns (or re-learns) the language model for one database. The
// learned model is normalized to the service's analyzer and persisted when
// a store is configured.
//
// Sample always attempts the database, even when its circuit breaker is
// open — it is the half-open probe that can close the circuit again. Runs
// on the same database are serialized; runs on different databases
// proceed concurrently.
func (s *Service) Sample(name string, opts SampleOptions) (DBStatus, error) {
	opts = opts.withDefaults()
	reg, lg := s.Metrics(), s.log()
	defer reg.Timer("service_sample_seconds")()

	s.mu.RLock()
	e, ok := s.entries[name]
	s.mu.RUnlock()
	if !ok {
		reg.Counter("service_sample_errors_total").Inc()
		return DBStatus{}, fmt.Errorf("service: %q: %w", name, ErrUnknownDatabase)
	}

	// In-flight guard: one sampling run per entry at a time, held for the
	// whole network run — which is exactly why it is a channel semaphore
	// and not a mutex (see entry.run). The gauge counts runs actually
	// executing, not ones parked on the guard.
	e.run <- struct{}{}
	defer func() { <-e.run }()
	s.mu.RLock()
	prev, stored, st := e.lastRun, e.model, e.stats
	s.mu.RUnlock()
	if opts.Extend && prev == nil && stored != nil {
		// The model came from the store (a restart, or a replica that did
		// not take the first sample): there is no run to continue, and a
		// fresh one would replace the stored model with a smaller one.
		reg.Counter("service_sample_errors_total").Inc()
		return st, fmt.Errorf("service: extend %q: the stored model of %d docs has no sampling run in this process to continue; sample it again without extend: %w",
			name, stored.Docs(), ErrInvalid)
	}
	inflight := reg.Gauge("service_inflight_samples")
	inflight.Add(1)
	defer inflight.Add(-1)
	lg.Info("sample start", "db", name, "docs", opts.Docs,
		"extend", opts.Extend, telemetry.TraceKey, opts.TraceID)

	// Propagate the trace ID onto the wire: runs on this entry are
	// serialized by the run guard, so the client's trace is ours for the
	// run.
	db := e.db
	if c, ok := db.(*netsearch.Client); ok {
		c.SetTrace(opts.TraceID)
		defer c.SetTrace("")
	}

	cfg := core.Config{
		DocsPerQuery: opts.PerQuery,
		Selector:     core.RandomLLM{},
		Stop:         core.StopAfterDocs(opts.Docs),
		Analyzer:     analysis.Raw(),
		Seed:         opts.Seed,
		InitialTerm:  opts.InitialTerm,
	}
	var res *core.Result
	var err error
	if opts.Extend && prev != nil {
		cfg.Stop = core.StopAfterDocs(prev.Docs + opts.Docs)
		res, err = core.Resume(db, cfg, prev)
	} else {
		res, err = core.Sample(db, cfg)
	}

	if err != nil {
		s.mu.Lock()
		s.recordFailure(e, err)
		st := e.stats
		s.mu.Unlock()
		reg.Counter("service_sample_errors_total").Inc()
		reg.Counter("service_sample_errors_total{" + dbLabel(name) + "}").Inc()
		lg.Warn("sample failed", "db", name, telemetry.TraceKey, opts.TraceID, "err", err.Error())
		return st, fmt.Errorf("service: sample %q: %w", name, err)
	}
	model := res.Learned.Normalize(s.analyzer) // CPU-heavy; keep outside the lock
	s.persist <- struct{}{}
	defer func() { <-s.persist }()
	s.mu.Lock()
	if s.entries[name] != e {
		// Unregistered, and perhaps registered again, while the run was in
		// flight: its model belongs to no served entry, so it is neither
		// installed nor stored.
		s.mu.Unlock()
		reg.Counter("service_sample_errors_total").Inc()
		return DBStatus{}, fmt.Errorf("service: %q unregistered during its sample: %w", name, ErrUnknownDatabase)
	}
	e.model = model
	s.publish(name, model)
	e.lastRun = res
	e.stats.HasModel = true
	e.stats.Terms = model.VocabSize()
	e.stats.SampledDocs = res.Docs
	e.stats.Queries = res.Queries
	e.stats.LastError = ""
	e.stats.ConsecutiveFailures = 0
	e.stats.CircuitOpen = false
	st = e.stats
	s.mu.Unlock()
	reg.Counter("service_samples_total").Inc()
	reg.Counter("service_samples_total{" + dbLabel(name) + "}").Inc()
	reg.Counter("service_sampled_docs_total").Add(int64(res.Docs))
	reg.Counter("service_probe_queries_total").Add(int64(res.Queries))
	lg.Info("sample done", "db", name, "docs", res.Docs, "queries", res.Queries,
		telemetry.TraceKey, opts.TraceID)
	if s.st != nil {
		// Persist after releasing the registry lock: Put fsyncs, and an
		// fsync under mu would stall every writer behind disk. The store
		// guard, held since before the commit, keeps every other store
		// access of the name out until the write matches the model just
		// installed.
		if err := s.st.Put(name, model); err != nil {
			s.mu.Lock()
			e.stats.LastError = err.Error()
			st = e.stats
			s.mu.Unlock()
			return st, fmt.Errorf("service: persist %q: %w", name, err)
		}
	}
	return st, nil
}

// SampleAll samples every registered database concurrently with the same
// options, each exactly as Sample(name, opts) would, and returns the
// per-database statuses keyed by name, plus a map of the databases that
// failed (nil when everything sampled). One database
// failing never stops the others; each failure is reported under its own
// name. Databases whose circuit breaker is open are skipped — their error
// is ErrCircuitOpen — so a fleet-wide resample does not hammer a peer
// that is known to be down; a direct Sample remains the probe that can
// close the circuit.
func (s *Service) SampleAll(opts SampleOptions, parallelism int) (map[string]DBStatus, map[string]error) {
	if parallelism < 1 {
		parallelism = 4
	}
	dbs := s.Databases()
	type outcome struct {
		st  DBStatus
		err error
	}
	// The pool caps concurrency; collecting outcomes by input order keeps
	// the maps deterministic regardless of completion order.
	results, _ := parallel.Map(parallelism, dbs, func(_ int, db DBStatus) (outcome, error) {
		if db.CircuitOpen {
			return outcome{db, fmt.Errorf("service: %q skipped: %w", db.Name, ErrCircuitOpen)}, nil
		}
		st, err := s.Sample(db.Name, opts)
		return outcome{st, err}, nil
	})
	statuses := make(map[string]DBStatus, len(dbs))
	var errs map[string]error
	for i, db := range dbs {
		statuses[db.Name] = results[i].st
		if results[i].err != nil {
			if errs == nil {
				errs = make(map[string]error)
			}
			errs[db.Name] = results[i].err
		}
	}
	return statuses, errs
}

// dbLabel renders a registered database name as a Prometheus label set
// fragment, escaping the three characters the text format reserves.
// Cardinality stays bounded because values come only from the registry's
// (small, operator-controlled) set of database names.
func dbLabel(name string) string {
	return `db="` + telemetry.EscapeLabel(name) + `"`
}

// Summary returns the top-k terms of a database's learned model under the
// given metric ("df", "ctf", or default avg-tf) — the §7 peek-inside view.
func (s *Service) Summary(name string, metricName string, k int) ([]summarize.Row, error) {
	var metric langmodel.RankMetric
	switch metricName {
	case "df":
		metric = langmodel.ByDF
	case "ctf":
		metric = langmodel.ByCTF
	case "", "avg-tf", "avgtf":
		metric = langmodel.ByAvgTF
	default:
		return nil, fmt.Errorf("service: unknown metric %q: %w", metricName, ErrInvalid)
	}
	if k <= 0 {
		k = 20
	}
	s.mu.RLock()
	e, ok := s.entries[name]
	var m *langmodel.Model
	if ok && e.model != nil {
		m = e.model
	}
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("service: %q: %w", name, ErrUnknownDatabase)
	}
	if m == nil {
		return nil, fmt.Errorf("service: database %q has no learned model: %w", name, ErrInvalid)
	}
	return summarize.Top(m, metric, k, analysis.InqueryStoplist()), nil
}

// Close releases remote connections for good: a remote database sampled
// after Close fails with "client is closed". The clients are collected
// under the lock and closed outside it (Close writes a FIN to the peer —
// network I/O that must not run under mu); name order makes any
// close-error deterministic.
func (s *Service) Close() error {
	s.mu.RLock()
	names := make([]string, 0, len(s.entries))
	for name := range s.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	clients := make([]*netsearch.Client, 0, len(names))
	for _, name := range names {
		if c, ok := s.entries[name].db.(*netsearch.Client); ok {
			clients = append(clients, c)
		}
	}
	s.mu.RUnlock()
	var firstErr error
	for _, c := range clients {
		if err := c.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
