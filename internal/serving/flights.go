package serving

import (
	"fmt"
	"sync"

	"repro/internal/telemetry"
)

// Key identifies one ranking: the query (the service keys on analyzed
// terms, the front on the raw string), the algorithm, the cutoff, and the
// epoch of the state it is ranked against. Whatever changes the answer bumps
// the epoch, so a rank that starts after never joins a flight from before.
type Key struct {
	Query, Alg string
	K          int
	Epoch      uint64
}

// Flight is one in-flight rank computation. The leader closes ready after
// setting val/err; followers block on ready and read them afterwards. An
// error reaches the followers waiting — they asked for that very computation
// — and no later caller: the flight has left the map by then.
type Flight struct {
	ready chan struct{}
	val   []RankedDB
	err   error
}

// Wait blocks until the flight's leader fulfills it.
func (f *Flight) Wait() ([]RankedDB, error) {
	<-f.ready
	return f.val, f.err
}

// Flights is a tier's map of rank computations in flight: concurrent
// identical ranks compute once and share the answer. Nothing outlives its
// flight, so the map is bounded by serving concurrency, not data volume.
type Flights struct {
	mu                  sync.Mutex
	flights             map[Key]*Flight
	prefix              string
	metrics             func() *telemetry.Registry
	coalesced, inflight string // metric names, built once
}

// NewFlights returns an empty flight map whose instruments land under
// prefix in the registry metrics returns at the time of each event.
func NewFlights(prefix string, metrics func() *telemetry.Registry) *Flights {
	return &Flights{
		flights:   make(map[Key]*Flight),
		prefix:    prefix,
		metrics:   metrics,
		coalesced: prefix + `_rank_coalesced_total{scope="flight"}`,
		inflight:  prefix + "_rank_flights_inflight",
	}
}

// Do returns the ranking for key: from an identical rank already in flight,
// or by running compute as the flight's leader. The slice is shared with
// every caller of the flight: copy before handing it out. If compute panics
// the flight is fulfilled with an error first: no follower may wait forever.
func (c *Flights) Do(key Key, compute func() ([]RankedDB, error)) ([]RankedDB, error) {
	f, leader := c.Join(key)
	if !leader {
		c.metrics().Counter(c.coalesced).Inc()
		return f.Wait()
	}
	fulfilled := false
	defer func() {
		if !fulfilled {
			r := recover()
			c.Fulfill(key, f, nil, fmt.Errorf("%s: rank panicked: %v", c.prefix, r))
			if r != nil { // nil: compute left by runtime.Goexit, which goes on by itself
				panic(r)
			}
		}
	}()
	val, err := compute()
	c.Fulfill(key, f, val, err)
	fulfilled = true
	return val, err
}

// peek is the coalescing fast path: one map lookup under the lock.
func (c *Flights) peek(key Key) *Flight {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flights[key]
}

// Join returns the flight for key and whether the caller leads it. A
// leader must call Fulfill exactly once; followers Wait.
func (c *Flights) Join(key Key) (*Flight, bool) {
	if f := c.peek(key); f != nil {
		return f, false
	}
	c.mu.Lock()
	if f := c.flights[key]; f != nil { // led by another caller since peek
		c.mu.Unlock()
		return f, false
	}
	f := &Flight{ready: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()
	c.metrics().Gauge(c.inflight).Add(1)
	return f, true
}

// Fulfill publishes the leader's result, retires the flight and wakes its
// followers; the next identical request starts a fresh computation.
func (c *Flights) Fulfill(key Key, f *Flight, val []RankedDB, err error) {
	f.val, f.err = val, err
	c.mu.Lock()
	delete(c.flights, key)
	c.mu.Unlock()
	c.metrics().Gauge(c.inflight).Add(-1)
	close(f.ready)
}

// Inflight reports the number of live flights: zero at rest, or a leaked
// flight is wedging every future identical query.
func (c *Flights) Inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.flights)
}
