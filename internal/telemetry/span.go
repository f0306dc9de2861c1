package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Span measures one timed operation against the registry's clock. Start
// one with StartSpan, finish it with End; the elapsed time lands in the
// histogram named by the span. Request trace IDs travel in the request
// context and in log lines (TraceKey), not in spans.
type Span struct {
	reg   *Registry
	name  string
	start time.Time
	done  atomic.Bool
}

// StartSpan begins a span whose duration will be observed into the
// histogram named name when End is called. On a nil registry the span is
// inert.
func (r *Registry) StartSpan(name string) *Span {
	return &Span{reg: r, name: name, start: r.now()}
}

// End observes the span's elapsed time (per the registry clock) into its
// histogram and returns the duration. Multiple Ends are idempotent: only
// the first observes.
func (s *Span) End() time.Duration {
	if s == nil || s.reg == nil {
		return 0
	}
	d := s.reg.now().Sub(s.start)
	if s.done.CompareAndSwap(false, true) {
		s.reg.Histogram(s.name).Observe(d.Seconds())
	}
	return d
}

// Timer returns a stop function observing the elapsed time into the named
// histogram — the one-line defer idiom:
//
//	defer reg.Timer("service_select_seconds")()
func (r *Registry) Timer(name string) func() time.Duration {
	sp := r.StartSpan(name)
	return sp.End
}

// ManualClock is a settable test clock: plug Now into Registry.SetClock
// and advance it explicitly to make every span duration deterministic.
type ManualClock struct {
	mu sync.Mutex
	t  time.Time
}

// NewManualClock starts a clock at the given instant.
func NewManualClock(start time.Time) *ManualClock {
	return &ManualClock{t: start}
}

// Now returns the clock's current instant.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TraceIDs hands out sequential trace IDs ("req-000001", …). Sequential
// IDs are deliberately boring: they are deterministic (golden tests can
// assert them), collision-free within a process, and trivially greppable
// in logs. Safe for concurrent use.
type TraceIDs struct {
	prefix string
	n      atomic.Uint64
}

// NewTraceIDs returns a generator whose IDs start with prefix.
func NewTraceIDs(prefix string) *TraceIDs {
	return &TraceIDs{prefix: prefix}
}

// Next returns the next ID.
func (t *TraceIDs) Next() string {
	return fmt.Sprintf("%s-%06d", t.prefix, t.n.Add(1))
}
