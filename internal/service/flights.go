package service

import (
	"fmt"
	"sync"

	"repro/internal/telemetry"
)

// The flight map's instruments.
const (
	flightsCoalesced = `service_rank_coalesced_total{scope="flight"}`
	flightsInflight  = "service_rank_flights_inflight"
)

// flightKey identifies one ranking: the analyzed query terms, the
// algorithm, the cutoff, and the epoch of the served set it is ranked
// against. Whatever changes the answer bumps the epoch, so a rank that
// starts after never joins a flight from before.
type flightKey struct {
	Query, Alg string
	K          int
	Epoch      uint64
}

// flight is one in-flight rank computation, one allocation. The leader
// marks ready done after setting val/err; followers wait on ready and read
// them afterwards. An error reaches the followers waiting — they asked for
// that very computation — and no later caller: the flight has left the map
// by then. followers counts the callers that joined (under the map's lock),
// so the leader learns whether anyone else holds its answer.
type flight struct {
	ready     sync.WaitGroup
	followers int
	val       []RankedDB
	err       error
}

// wait blocks until the flight's leader fulfills it.
func (f *flight) wait() ([]RankedDB, error) {
	f.ready.Wait()
	return f.val, f.err
}

// flights is the service's map of rank computations in flight: concurrent
// identical ranks compute once and share the answer. Nothing outlives its
// flight, so the map is bounded by serving concurrency, not data volume.
type flights struct {
	mu      sync.Mutex
	flights map[flightKey]*flight
	metrics func() *telemetry.Registry
}

// newFlights returns an empty flight map whose instruments land in the
// registry metrics returns at the time of each event.
func newFlights(metrics func() *telemetry.Registry) *flights {
	return &flights{flights: make(map[flightKey]*flight), metrics: metrics}
}

// do returns the ranking for key: from an identical rank already in flight,
// or by running compute as the flight's leader. shared reports whether any
// other caller holds the same slice: always for a follower, and for a
// leader whose flight was joined. A shared slice must be copied before it
// is handed out. If compute panics the flight is fulfilled with an error
// first: no follower may wait forever.
func (c *flights) do(key flightKey, compute func() ([]RankedDB, error)) (val []RankedDB, shared bool, err error) {
	f, leader := c.join(key)
	if !leader {
		c.metrics().Counter(flightsCoalesced).Inc()
		val, err = f.wait()
		return val, true, err
	}
	fulfilled := false
	defer func() {
		if !fulfilled {
			r := recover()
			c.fulfill(key, f, nil, fmt.Errorf("service: rank panicked: %v", r))
			if r != nil { // nil: compute left by runtime.Goexit, which goes on by itself
				panic(r)
			}
		}
	}()
	val, err = compute()
	shared = c.fulfill(key, f, val, err)
	fulfilled = true
	return val, shared, err
}

// join returns the flight for key and whether the caller leads it. A
// leader must call fulfill exactly once; followers wait.
func (c *flights) join(key flightKey) (*flight, bool) {
	c.mu.Lock()
	if f := c.flights[key]; f != nil {
		f.followers++
		c.mu.Unlock()
		return f, false
	}
	f := new(flight)
	f.ready.Add(1)
	c.flights[key] = f
	c.mu.Unlock()
	c.metrics().Gauge(flightsInflight).Add(1)
	return f, true
}

// fulfill publishes the leader's result, retires the flight and wakes its
// followers; the next identical request starts a fresh computation. It
// reports whether the flight had followers: once the flight has left the
// map no one else can join, so the count read here is final.
func (c *flights) fulfill(key flightKey, f *flight, val []RankedDB, err error) (joined bool) {
	f.val, f.err = val, err
	c.mu.Lock()
	delete(c.flights, key)
	joined = f.followers > 0
	c.mu.Unlock()
	c.metrics().Gauge(flightsInflight).Add(-1)
	f.ready.Done()
	return joined
}

// inflight reports the number of live flights: zero at rest, or a leaked
// flight is wedging every future identical query.
func (c *flights) inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.flights)
}
