// Package telemetry is the runtime instrumentation layer: what the
// *running* system is doing, as opposed to the paper's offline evaluation
// measures in internal/metrics (ctf ratio, Spearman, rdiff). A selection
// service that samples databases it does not control lives or dies on
// per-probe cost accounting — how many probe queries, retries and redials
// a sampling run spent — so those numbers are first-class outputs here,
// not log noise.
//
// The package is dependency-free (stdlib only) and concurrency-safe:
// counters and gauges are single atomic words, histograms take a short
// mutex per observation. A nil *Registry is a valid no-op sink — every
// accessor on it returns a shared inert instrument — so instrumented code
// never needs nil checks and uninstrumented paths pay one predictable
// branch.
//
// Determinism contract: the wall clock enters only through the registry's
// injectable clock (SetClock), so packages under the repolint `wallclock`
// rule may record spans and latencies without ever calling time.Now
// themselves, and tests that pin the clock get byte-identical snapshots.
// Snapshot and the exposition writers iterate metrics in sorted name
// order, which makes /metrics output golden-testable.
//
// Metric names follow the Prometheus convention: snake_case base name,
// unit suffix (_total for counters, _seconds for latency histograms), and
// an optional literal label set in curly braces:
//
//	netsearch_dials_total
//	netsearch_op_seconds{op="search"}
//	service_samples_total{db="wsj88"}
//
// The label set is part of the metric's identity (the registry treats the
// whole string as the key) but the exposition writers understand the
// base{labels} split, so Prometheus sees properly-labelled families.
// Cardinality rule: labels may only take values from small closed sets
// (operation names, status classes, registered database names) — never
// from unbounded inputs like query text or document ids.
package telemetry

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative n is ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (in-flight requests, pool
// occupancy). Unlike a Counter it can go down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the value by n (use a negative n to decrement).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds a process's metrics. The zero value is not usable;
// create one with NewRegistry. A nil *Registry is a valid no-op sink.
type Registry struct {
	clock atomic.Pointer[func() time.Time]

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// discard instruments returned by accessors on a nil registry: real
// objects, so callers can Inc/Observe unconditionally, but never exposed
// anywhere.
var (
	discardCounter Counter
	discardGauge   Gauge
	discardHist    = newHistogram(DefaultLatencyBuckets)
)

// NewRegistry returns an empty registry reading the real wall clock.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	now := time.Now
	r.clock.Store(&now)
	return r
}

// SetClock replaces the registry's time source. Spans, timers and latency
// observations all read this clock, so a test clock (see ManualClock)
// makes every duration deterministic. A nil fn restores time.Now.
func (r *Registry) SetClock(fn func() time.Time) {
	if r == nil {
		return
	}
	if fn == nil {
		fn = time.Now
	}
	r.clock.Store(&fn)
}

// now reads the registry's clock; the zero time on a nil registry.
func (r *Registry) now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return (*r.clock.Load())()
}

// Counter returns the named counter, creating it on first use. Safe for
// concurrent use; on a nil registry it returns a shared discard counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &discardCounter
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &discardGauge
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with DefaultLatencyBuckets,
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramBuckets(name, nil)
}

// HistogramBuckets returns the named histogram, creating it with the
// given bucket upper bounds on first use (nil means
// DefaultLatencyBuckets). Buckets are fixed at creation; later calls
// return the existing histogram regardless of the bounds argument.
func (r *Registry) HistogramBuckets(name string, bounds []float64) *Histogram {
	if r == nil {
		return discardHist
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		if bounds == nil {
			bounds = DefaultLatencyBuckets
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a registry's metrics, with all maps
// keyed by full metric name. encoding/json marshals Go maps in sorted key
// order, so a marshalled Snapshot is deterministic and golden-testable.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every metric's current value. On a nil registry it
// returns an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		snap.Histograms[name] = h.Snapshot()
	}
	return snap
}

// CounterSum sums every counter whose full name (label syntax included)
// contains substr — the tool for totalling one metric across label values
// or prefixed tiers, e.g. CounterSum(`rank_coalesced_total{scope="flight"}`)
// over a snapshot that may carry the service_ or cluster_ spelling.
func (s Snapshot) CounterSum(substr string) int64 {
	var total int64
	for name, v := range s.Counters { // summation is order-independent
		if strings.Contains(name, substr) {
			total += v
		}
	}
	return total
}
