package serving

import (
	"fmt"
	"sync"

	"repro/internal/telemetry"
)

// Key identifies one ranking: the query (a tier's canonical spelling of it
// — the service keys on analyzed terms, the front on the raw string), the
// algorithm, the cutoff, and the epoch of the state it was ranked against.
// Keying on the epoch makes invalidation free: whatever changes the answer
// bumps the epoch, new requests key into new entries, and the old epoch's
// entries age out of the LRU on their own. It also makes cross-epoch
// coalescing impossible by construction.
type Key struct {
	Query string
	Alg   string
	K     int
	Epoch uint64
}

// Flight is one in-flight rank computation. The leader closes ready after
// setting val/err; followers block on ready and read them afterwards.
// Errors ride the flight to its current followers — they asked for the
// exact same computation — but the flight is gone from the map by then, so
// an error is never served to a later, unrelated caller.
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

type cacheEntry struct {
	key Key
	val []RankedDB

	prev, next *cacheEntry // LRU list, head = most recent
}

// Cache is a tier's memory of rankings: a bounded LRU of completed results
// and the map of computations in flight, under one lock. The two halves
// answer different questions. The LRU is a tunable store — capacity 0
// turns it off and leaves the flights — that only interactive single
// ranks are admitted to, so a bulk batch cannot evict the working set.
// The flight map is a correctness-neutral dedup of concurrent identical
// work: it is bounded by serving concurrency, not by data volume, because
// every flight has a live leader and Fulfill always removes it.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[Key]*cacheEntry
	head    *cacheEntry
	tail    *cacheEntry
	flights map[Key]*Flight

	prefix  string
	metrics func() *telemetry.Registry
	// Metric names, built once: <prefix>_select_cache_hits_total,
	// _select_cache_misses_total (a miss is a leader that computed),
	// _rank_coalesced_total{scope="flight"}, _rank_flights_inflight.
	hits, misses, coalesced, inflight string
}

// NewCache returns a cache of the given LRU capacity (<= 0: flights only)
// whose counters land under prefix in the registry metrics returns at the
// time of each event.
func NewCache(capacity int, prefix string, metrics func() *telemetry.Registry) *Cache {
	capacity = max(capacity, 0)
	return &Cache{
		cap:       capacity,
		entries:   make(map[Key]*cacheEntry, capacity),
		flights:   make(map[Key]*Flight),
		prefix:    prefix,
		metrics:   metrics,
		hits:      prefix + "_select_cache_hits_total",
		misses:    prefix + "_select_cache_misses_total",
		coalesced: prefix + `_rank_coalesced_total{scope="flight"}`,
		inflight:  prefix + "_rank_flights_inflight",
	}
}

// Do returns the ranking for key: from the LRU, from an identical rank
// already in flight, or by running compute as the flight's leader. cached
// says whether this caller uses the LRU at all (a batch item does not: it
// neither probes nor is admitted, but still coalesces). status is the
// Ranker.Rank cache disposition. The returned slice is shared with the
// cache and with every other caller of the same flight: copy before
// handing it out. If compute panics the flight is fulfilled with an error
// — no follower may block forever on a flight nobody owns — and the panic
// propagates.
func (c *Cache) Do(key Key, cached bool, compute func() ([]RankedDB, error)) (val []RankedDB, status string, err error) {
	reg := c.metrics()
	cached = cached && c.cap > 0
	status = "bypass"
	if cached {
		if hit, ok := c.Probe(key); ok {
			reg.Counter(c.hits).Inc()
			return hit, "hit", nil
		}
		status = "miss"
	}
	f, leader := c.Join(key)
	if !leader {
		reg.Counter(c.coalesced).Inc()
		if val, err = f.Wait(); err != nil {
			return nil, status, err
		}
		if cached {
			// The flight's leader may have been a batch, which never admits
			// to the LRU; this caller wants the result cached. A repeated
			// add is idempotent.
			c.add(key, val)
			reg.Counter(c.hits).Inc()
			status = "hit"
		}
		return val, status, nil
	}
	if cached {
		reg.Counter(c.misses).Inc()
	}
	fulfilled := false
	defer func() {
		if !fulfilled {
			r := recover()
			c.Fulfill(key, f, nil, fmt.Errorf("%s: rank panicked: %v", c.prefix, r), false)
			if r != nil { // nil: compute left by runtime.Goexit, which goes on by itself
				panic(r)
			}
		}
	}()
	val, err = compute()
	c.Fulfill(key, f, val, err, cached)
	fulfilled = true
	return val, status, err
}

// Probe is the hit path: the cached result for key, refreshed to
// most-recently-used, or (nil, false) on a miss. It allocates nothing — a
// cache hit costs one map lookup and two pointer splices under the lock.
// The returned slice is shared with future hits; callers copy before
// handing it out.
//
//lint:hotpath
func (c *Cache) Probe(key Key) ([]RankedDB, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[key]
	if e == nil {
		return nil, false
	}
	c.moveToFront(e)
	return e.val, true
}

// peek is the coalescing fast path: the in-flight entry for key, or nil.
// It allocates nothing — one map lookup under the lock.
//
//lint:hotpath
func (c *Cache) peek(key Key) *Flight {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flights[key]
}

// Join returns the flight for key and whether the caller leads it. A
// leader must call Fulfill exactly once; followers Wait. The split from
// peek exists so the lookup is a separately provable //lint:hotpath
// function.
func (c *Cache) Join(key Key) (*Flight, bool) {
	if f := c.peek(key); f != nil {
		return f, false
	}
	c.mu.Lock()
	if f := c.flights[key]; f != nil {
		// Another caller admitted the same key between peek and this lock.
		c.mu.Unlock()
		return f, false
	}
	f := &Flight{ready: make(chan struct{})}
	c.flights[key] = f
	n := len(c.flights)
	c.mu.Unlock()
	c.metrics().Gauge(c.inflight).Set(int64(n))
	return f, true
}

// Fulfill publishes the leader's result and retires the flight: followers
// unblock, and the next identical request starts a fresh computation or —
// when admit is set and the computation succeeded — hits the LRU.
func (c *Cache) Fulfill(key Key, f *Flight, val []RankedDB, err error, admit bool) {
	f.val, f.err = val, err
	c.mu.Lock()
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	if admit && err == nil {
		c.addLocked(key, val)
	}
	n := len(c.flights)
	c.mu.Unlock()
	c.metrics().Gauge(c.inflight).Set(int64(n))
	close(f.ready)
}

// Len reports the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Inflight reports the number of live flights. Tests assert it returns to
// zero — a leaked flight would wedge every future identical query.
func (c *Cache) Inflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.flights)
}

func (c *Cache) add(key Key, val []RankedDB) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addLocked(key, val)
}

// addLocked installs (or refreshes) a completed result, evicting from the
// LRU tail past capacity. Duplicate adds of the same key are idempotent:
// results for one key are bit-identical by construction. Caller holds
// c.mu.
func (c *Cache) addLocked(key Key, val []RankedDB) {
	if c.cap == 0 {
		return
	}
	if e := c.entries[key]; e != nil {
		e.val = val
		c.moveToFront(e)
		return
	}
	e := &cacheEntry{key: key, val: val}
	c.entries[key] = e
	c.pushFront(e)
	for len(c.entries) > c.cap {
		delete(c.entries, c.tail.key)
		c.unlink(c.tail)
	}
}

func (c *Cache) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) pushFront(e *cacheEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) moveToFront(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
