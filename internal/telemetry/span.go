package telemetry

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Now returns the registry clock's current instant (the zero time on a
// nil registry): the start of a timed operation, which Since closes.
func (r *Registry) Now() time.Time { return r.now() }

// Since observes the time elapsed since start (per the registry clock)
// into the histogram named name and returns it; 0 on a nil registry. With
// Now it is the one timing form, allocation-free as a deferred call:
//
//	defer reg.Since("service_select_seconds", reg.Now())
func (r *Registry) Since(name string, start time.Time) time.Duration {
	if r == nil {
		return 0
	}
	d := r.now().Sub(start)
	r.Histogram(name).Observe(d.Seconds())
	return d
}

// ManualClock is a settable test clock: plug Now into Registry.SetClock
// and advance it explicitly to make every timed duration deterministic.
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

// Next returns the next ID: the prefix, a dash and the sequence number
// zero-padded to six digits, built in one allocation.
func (t *TraceIDs) Next() string {
	var buf [32]byte
	b := append(append(buf[:0], t.prefix...), '-')
	n := t.n.Add(1)
	for p := uint64(100000); p > n; p /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendUint(b, n, 10))
}
