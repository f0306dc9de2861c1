// Package admission implements load shedding for the query-serving path:
// a gate in front of rank handlers that bounds concurrency and sheds with
// 429 + Retry-After past it (DESIGN.md §14).
//
// The policy is one rule: a hard in-flight cap (MaxInFlight). Request n+1
// is shed while n are executing. This keeps queue time — the silent killer
// of tail latency in a closed system — from forming at all, and it never
// changes an admitted request's answer: every tier serves the same ranking
// for a query whether it is loaded or idle.
//
// The cap is off by default; a zero Config builds the nil *Gate, which
// admits everything. The gate is cheap enough for the per-request path:
// one atomic add per admit and per release, and no allocation.
package admission

import (
	"sync/atomic"

	"repro/internal/telemetry"
)

// Config sets the gate's cap. The zero value disables it (New returns a
// nil gate that admits everything).
type Config struct {
	// MaxInFlight is the hard concurrency cap: an arrival that would push
	// the in-flight count past it is shed. 0 disables the cap.
	MaxInFlight int
}

// Gate is an admission controller for one serving surface. Create it with
// New; all methods are safe for concurrent use, and all methods on a nil
// *Gate are no-ops that admit everything — callers keep a single code
// path whether admission is configured or not.
type Gate struct {
	max int64

	// n is the authoritative in-flight count; the gauge mirrors it so the
	// shedding decision never depends on whether telemetry is installed.
	// The gauge moves by ±1 on the admitted path only, so concurrent
	// updates commute and a shed arrival never shows: idle reads zero.
	n        atomic.Int64
	inflight *telemetry.Gauge
	shed     *telemetry.Counter
	admitted *telemetry.Counter
}

// New builds a gate whose telemetry lands in reg under the given metric
// prefix ("service", "cluster"): <prefix>_rank_inflight (gauge, the depth
// the cap keys off), <prefix>_shed_total{reason="inflight"} and
// <prefix>_admitted_total. A zero config returns nil: the nil gate is the
// disabled gate.
func New(cfg Config, reg *telemetry.Registry, prefix string) *Gate {
	if cfg.MaxInFlight <= 0 {
		return nil
	}
	return &Gate{
		max:      int64(cfg.MaxInFlight),
		inflight: reg.Gauge(prefix + "_rank_inflight"),
		shed:     reg.Counter(prefix + `_shed_total{reason="inflight"}`),
		admitted: reg.Counter(prefix + "_admitted_total"),
	}
}

// Ticket is one admitted request's pass through the gate. The zero
// Ticket, which the nil gate hands out, releases nothing, so handlers can
// unconditionally defer Release.
type Ticket struct {
	g *Gate
}

// Admit decides one arrival. ok=false means shed: the caller answers 429
// and must NOT call Release (the arrival was never counted in flight).
// ok=true hands back a ticket the caller must Release exactly once when
// the request finishes.
func (g *Gate) Admit() (t Ticket, ok bool) {
	if g == nil {
		return Ticket{}, true
	}
	if g.n.Add(1) > g.max {
		g.n.Add(-1)
		g.shed.Inc()
		return Ticket{}, false
	}
	g.inflight.Add(1)
	g.admitted.Inc()
	return Ticket{g: g}, true
}

// Release ends the request: the in-flight count drops. Call exactly once
// per admitted ticket; the zero ticket (from a nil gate) is a no-op.
func (t Ticket) Release() {
	if t.g == nil {
		return
	}
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
