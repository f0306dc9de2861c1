// Package admission implements load shedding for the query-serving path:
// a gate in front of rank handlers that bounds concurrency, degrades
// result depth under pressure, and sheds with 429 + Retry-After when the
// server is past what it can absorb (DESIGN.md §14).
//
// The policy is deliberately boring and deterministic:
//
//   - A hard in-flight cap (MaxInFlight): request n+1 is shed while n are
//     executing. This is the backstop that keeps queue time — the silent
//     killer of tail latency in a closed system — from forming at all.
//   - Graceful degradation (DegradeAt/DegradeK): past a softer in-flight
//     depth, rank requests are still admitted but their k is clamped, so
//     the server sheds work (result materialization, fusion width) before
//     it sheds requests.
//   - Latency shedding (MaxP99): when the windowed p99 of recently
//     completed requests exceeds the bound, new arrivals are shed while
//     the backlog drains. The window (telemetry.Window) forgets, so the
//     gate reopens as soon as observed latency recovers; and the check
//     only applies while other requests are in flight — an idle server
//     always admits, which both prevents a stale window from wedging the
//     gate shut and gives it fresh observations to recover with.
//
// Every threshold is off by default; a Gate with a zero Config (or a nil
// *Gate) admits everything untouched. The gate is cheap enough for the
// per-request path: one atomic add per admit/release plus an amortized
// windowed-quantile lookup when MaxP99 is set.
package admission

import (
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Config sets the gate's thresholds. The zero value disables every
// mechanism (Enabled reports false and New returns a nil gate that admits
// everything).
type Config struct {
	// MaxInFlight is the hard concurrency cap: an arrival that would push
	// the in-flight count past it is shed. 0 disables the cap.
	MaxInFlight int
	// DegradeAt is the in-flight depth at (and past) which admitted rank
	// requests have their k clamped to DegradeK. 0 disables degradation.
	DegradeAt int
	// DegradeK is the clamped result depth under degradation (default 10
	// when DegradeAt is set).
	DegradeK int
	// MaxP99 sheds arrivals while the windowed p99 of recently completed
	// requests exceeds it and at least one request is already in flight.
	// 0 disables latency shedding.
	MaxP99 time.Duration
	// Window is the latency window size in observations (default 256).
	Window int
	// RetryAfter is the hint sent to shed clients in the Retry-After
	// header (default 1s, rounded up to whole seconds).
	RetryAfter time.Duration
}

// Enabled reports whether any admission mechanism is configured.
func (c Config) Enabled() bool {
	return c.MaxInFlight > 0 || c.DegradeAt > 0 || c.MaxP99 > 0
}

func (c Config) withDefaults() Config {
	if c.DegradeAt > 0 && c.DegradeK <= 0 {
		c.DegradeK = 10
	}
	if c.Window <= 0 {
		c.Window = 256
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Gate is an admission controller for one serving surface. Create it with
// New; all methods are safe for concurrent use, and all methods on a nil
// *Gate are no-ops that admit everything — callers keep a single code
// path whether admission is configured or not.
type Gate struct {
	cfg    Config
	window *telemetry.Window
	now    func() time.Time

	// n is the authoritative in-flight count; the gauge mirrors it so the
	// shedding decision never depends on whether telemetry is installed.
	// The gauge moves by ±1 on the admitted path only, so concurrent
	// updates commute and a shed arrival never shows: idle reads zero.
	n        atomic.Int64
	inflight *telemetry.Gauge
	shedCap  *telemetry.Counter
	shedP99  *telemetry.Counter
	degraded *telemetry.Counter
	admitted *telemetry.Counter
}

// New builds a gate whose telemetry lands in reg under the given metric
// prefix ("service", "cluster"): <prefix>_rank_inflight (gauge, the queue
// depth the shedding policy keys off), <prefix>_shed_total{reason=...}
// (capacity vs latency sheds), <prefix>_degraded_total, and
// <prefix>_admitted_total. A zero config returns nil: the nil gate is the
// disabled gate.
func New(cfg Config, reg *telemetry.Registry, prefix string) *Gate {
	if !cfg.Enabled() {
		return nil
	}
	cfg = cfg.withDefaults()
	return &Gate{
		cfg:      cfg,
		window:   telemetry.NewWindow(cfg.Window),
		now:      time.Now,
		inflight: reg.Gauge(prefix + "_rank_inflight"),
		shedCap:  reg.Counter(prefix + `_shed_total{reason="inflight"}`),
		shedP99:  reg.Counter(prefix + `_shed_total{reason="p99"}`),
		degraded: reg.Counter(prefix + "_degraded_total"),
		admitted: reg.Counter(prefix + "_admitted_total"),
	}
}

// SetClock replaces the gate's wall clock for deterministic tests.
func (g *Gate) SetClock(fn func() time.Time) {
	if g != nil && fn != nil {
		g.now = fn
	}
}

// Ticket is one admitted request's pass through the gate. The zero-value
// semantics mirror the nil gate: a nil *Ticket clamps nothing and its
// Release is a no-op, so handlers can unconditionally defer Release.
type Ticket struct {
	g        *Gate
	start    time.Time
	degraded bool
}

// Admit decides one arrival. ok=false means shed: the caller answers 429
// with RetryAfterSeconds and must NOT call Release (the arrival was never
// counted in flight). ok=true hands back a ticket the caller must Release
// exactly once when the request finishes.
func (g *Gate) Admit() (t *Ticket, ok bool) {
	if g == nil {
		return nil, true
	}
	n := g.n.Add(1)
	if g.cfg.MaxInFlight > 0 && n > int64(g.cfg.MaxInFlight) {
		g.n.Add(-1)
		g.shedCap.Inc()
		return nil, false
	}
	// Latency shedding applies only when this arrival has company: with
	// n == 1 the server is idle, and admitting is both safe (nothing to
	// protect) and necessary (the window needs fresh observations to ever
	// report recovery).
	if g.cfg.MaxP99 > 0 && n > 1 && g.window.Quantile(0.99) > g.cfg.MaxP99.Seconds() {
		g.n.Add(-1)
		g.shedP99.Inc()
		return nil, false
	}
	g.inflight.Add(1)
	degraded := g.cfg.DegradeAt > 0 && n >= int64(g.cfg.DegradeAt)
	if degraded {
		g.degraded.Inc()
	}
	g.admitted.Inc()
	return &Ticket{g: g, start: g.now(), degraded: degraded}, true
}

// RetryAfterSeconds is the whole-second Retry-After hint for shed
// responses (at least 1).
func (g *Gate) RetryAfterSeconds() int {
	if g == nil {
		return 1
	}
	secs := int((g.cfg.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// ClampK applies degradation to a rank request's k: under pressure, any
// request asking for more than DegradeK rows (or for everything, k <= 0)
// is clamped to DegradeK. Outside degradation k passes through.
func (t *Ticket) ClampK(k int) int {
	if t == nil || !t.degraded {
		return k
	}
	if limit := t.g.cfg.DegradeK; k <= 0 || k > limit {
		return limit
	}
	return k
}

// Degraded reports whether this request was admitted under degradation.
func (t *Ticket) Degraded() bool { return t != nil && t.degraded }

// Release ends the request: the in-flight count drops and the request's
// latency feeds the shedding window. Call exactly once per admitted
// ticket; a nil ticket (from a nil gate) is a no-op.
func (t *Ticket) Release() {
	if t == nil {
		return
	}
	t.g.window.Observe(t.g.now().Sub(t.start).Seconds())
	t.g.n.Add(-1)
	t.g.inflight.Add(-1)
}

// InFlight returns the current in-flight count (tests and debugging).
func (g *Gate) InFlight() int64 {
	if g == nil {
		return 0
	}
	return g.n.Load()
}
