// Package faulty injects deterministic faults into the sampling fabric.
//
// The selection service samples databases it does not control (§3), which
// in practice means flaky networks, restarting servers, and slow peers.
// This package is the test double for that world: a core.Database wrapper
// that fails a seeded fraction of calls, and a net.Conn wrapper that
// drops, truncates, and delays frames — all driven by internal/randx, so
// every "random" outage replays bit-identically from its seed.
//
// Composition points:
//
//   - DB wraps any core.Database; hand it to netsearch.Serve to make the
//     remote side flaky, or register it locally to exercise the service's
//     health tracking and circuit breaker.
//   - Conn wraps any net.Conn; Dialer plugs it into
//     netsearch.Options.DialFunc to make the transport flaky underneath a
//     retrying client.
package faulty

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/randx"
)

// ErrInjected is the root of every error this package injects; test for
// it with errors.Is.
var ErrInjected = errors.New("faulty: injected failure")

// DB wraps a core.Database and fails a deterministic, seeded fraction of
// calls. It is safe for concurrent use. The error rate can be changed at
// runtime (SetRate), so a test can break a database, watch the circuit
// breaker trip, heal it, and watch a probe close the circuit again.
type DB struct {
	inner core.Database

	mu       sync.Mutex
	rng      *randx.Source
	rate     float64
	calls    int
	injected int
	hook     func(op string, call int)
}

// WrapDB returns a DB that fails each call with probability rate, drawn
// from a stream seeded with seed.
func WrapDB(inner core.Database, seed uint64, rate float64) *DB {
	return &DB{inner: inner, rng: randx.New(seed), rate: rate}
}

// SetRate changes the failure probability; 0 heals the database.
func (d *DB) SetRate(rate float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rate = rate
}

// SetHook installs a callback invoked before every call with the operation
// name and the 1-based call number — the chaos suite's trigger for
// mid-run events like a server restart. The hook runs with the DB's lock
// held and must not call back into the DB.
func (d *DB) SetHook(hook func(op string, call int)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hook = hook
}

// Calls returns how many operations have been attempted.
func (d *DB) Calls() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.calls
}

// Injected returns how many operations were failed by injection.
func (d *DB) Injected() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.injected
}

// maybeFail counts the call, fires the hook, and decides injection.
func (d *DB) maybeFail(op string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.calls++
	if d.hook != nil {
		d.hook(op, d.calls)
	}
	if d.rate > 0 && d.rng.Float64() < d.rate {
		d.injected++
		return fmt.Errorf("%w: %s call %d", ErrInjected, op, d.calls)
	}
	return nil
}

// Search implements core.Database.
func (d *DB) Search(query string, n int) ([]int, error) {
	if err := d.maybeFail("search"); err != nil {
		return nil, err
	}
	return d.inner.Search(query, n)
}

// Fetch implements core.Database.
func (d *DB) Fetch(id int) (corpus.Document, error) {
	if err := d.maybeFail("fetch"); err != nil {
		return corpus.Document{}, err
	}
	return d.inner.Fetch(id)
}

// TotalHits forwards hit counting when the wrapped database supports it
// (see sizeest.HitCounter), subject to the same fault injection.
func (d *DB) TotalHits(query string) (int, error) {
	if err := d.maybeFail("count"); err != nil {
		return 0, err
	}
	hc, ok := d.inner.(interface {
		TotalHits(query string) (int, error)
	})
	if !ok {
		return 0, errors.New("faulty: wrapped database does not support counting")
	}
	return hc.TotalHits(query)
}

var _ core.Database = (*DB)(nil)

// ConnOptions configure a fault-injecting Conn.
type ConnOptions struct {
	// Seed seeds the fault stream. Zero means 1.
	Seed uint64
	// WriteRate is the probability each Write fails. An injected write
	// fault is the nastiest one a framed protocol can see: half the frame
	// is delivered before the connection drops.
	WriteRate float64
	// ReadRate is the probability each Read fails (connection dropped).
	ReadRate float64
	// FailWriteCall, when positive, deterministically truncates exactly
	// the n-th Write (1-based) regardless of WriteRate — for scripted
	// protocol-desync regression tests.
	FailWriteCall int
	// MaxLatency, when positive, delays each Read and Write by a uniform
	// duration in [0, MaxLatency) drawn from the fault stream.
	MaxLatency time.Duration
	// Sleep replaces time.Sleep for injected latency (tests). nil means
	// time.Sleep.
	Sleep func(time.Duration)
}

// Conn wraps a net.Conn and injects transport faults per its options. An
// injected fault closes the underlying connection, exactly like a peer
// reset would.
type Conn struct {
	net.Conn

	mu     sync.Mutex
	opts   ConnOptions
	rng    *randx.Source
	writes int
}

// WrapConn wraps c with deterministic fault injection.
func WrapConn(c net.Conn, opts ConnOptions) *Conn {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	return &Conn{Conn: c, opts: opts, rng: randx.New(seed)}
}

// draw decides latency and failure for one IO under the lock; sleeping
// happens outside it.
func (c *Conn) draw(rate float64) (delay time.Duration, fail bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.opts.MaxLatency > 0 {
		delay = time.Duration(c.rng.Float64() * float64(c.opts.MaxLatency))
	}
	fail = rate > 0 && c.rng.Float64() < rate
	return delay, fail
}

func (c *Conn) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if c.opts.Sleep != nil {
		c.opts.Sleep(d)
		return
	}
	time.Sleep(d)
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	delay, fail := c.draw(c.opts.ReadRate)
	c.sleep(delay)
	if fail {
		c.Conn.Close()
		return 0, fmt.Errorf("read: %w", ErrInjected)
	}
	return c.Conn.Read(p)
}

// Write implements net.Conn. An injected fault delivers the first half of
// p to the peer, then drops the connection — a truncated frame.
func (c *Conn) Write(p []byte) (int, error) {
	delay, fail := c.draw(c.opts.WriteRate)
	c.mu.Lock()
	c.writes++
	if c.opts.FailWriteCall > 0 && c.writes == c.opts.FailWriteCall {
		fail = true
	}
	c.mu.Unlock()
	c.sleep(delay)
	if fail {
		n, _ := c.Conn.Write(p[:len(p)/2])
		c.Conn.Close()
		return n, fmt.Errorf("write: %w", ErrInjected)
	}
	return c.Conn.Write(p)
}

// Dialer returns a dial function for netsearch.Options.DialFunc that
// wraps every new connection in a fault-injecting Conn. Each connection
// gets an independent stream forked from opts.Seed, so redials see fresh
// but reproducible fault patterns.
func Dialer(opts ConnOptions) func(addr string) (net.Conn, error) {
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	root := randx.New(seed)
	var mu sync.Mutex
	var conns uint64
	return func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		conns++
		connOpts := opts
		connOpts.Seed = root.Fork(conns).Uint64() | 1
		mu.Unlock()
		return WrapConn(conn, connOpts), nil
	}
}

// Writer wraps an io.Writer and deterministically truncates the n-th
// Write (1-based) mid-buffer, delivering the first half and failing every
// write after it — a process crash in the middle of flushing a file. It
// is the filesystem sibling of Conn's torn frame, built for the store's
// crash-safety tests of its one atomic write.
type Writer struct {
	inner io.Writer

	mu       sync.Mutex
	failCall int
	writes   int
	dead     bool
}

// WrapWriter returns a Writer that truncates the failCall-th Write.
// failCall <= 0 never injects.
func WrapWriter(inner io.Writer, failCall int) *Writer {
	return &Writer{inner: inner, failCall: failCall}
}

// Write implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes++
	call := w.writes
	dead := w.dead
	if w.failCall > 0 && call == w.failCall {
		w.dead = true
	}
	trunc := w.dead && !dead
	w.mu.Unlock()
	if dead {
		return 0, fmt.Errorf("write %d: %w", call, ErrInjected)
	}
	if trunc {
		n, _ := w.inner.Write(p[:len(p)/2])
		return n, fmt.Errorf("write %d: %w", call, ErrInjected)
	}
	return w.inner.Write(p)
}
