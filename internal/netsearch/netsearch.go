// Package netsearch exposes any core.Database over TCP and provides a
// client that is itself a core.Database. It demonstrates the paper's
// minimal-criterion premise end to end: the selection service can sample a
// database it does not control, across a process and network boundary,
// using nothing but the ordinary "run query / fetch document" interface
// (§3). No language-model export, no shared indexing conventions.
//
// The wire protocol is length-prefixed binary frames, hand-encoded in
// codec.go with no reflection on either end:
//
//	u32 little-endian payload length | u8 kind | fields
//
// where a field is a uvarint integer, a uvarint-length-prefixed raw byte
// string, or a score as 8 raw math.Float64bits bytes. In every layout the
// integers come first and the strings last. Requests (every one closes
// with its trace ID string):
//
//	0x01 search      n, query
//	0x02 fetch       id
//	0x03 count       query                   (optional; total matching docs)
//	0x04 register    name, addr
//	0x05 unregister  name
//	0x06 rankstream  k, count, alg, queries…
//
// Responses carry either a result or an error string:
//
//	0x81 ids    count, ids…
//	0x82 doc    id, topic, title, text
//	0x83 count  n
//	0x84 ok
//	0x85 item   index, count, scores…, error, names…
//	0x86 eos
//	0x87 error  message
//
// A length above maxFrame is refused before anything is allocated, and a
// short, over-long or unknown-kind payload is a protocol error that drops
// the connection. Both ends of every connection are built from this
// repository, so there is no version byte and nothing to negotiate.
//
// The client side is fault tolerant and owns its connection: it dials on
// its first operation, every operation can carry a deadline, any write or
// decode failure marks the connection broken (a half-written frame must
// never be reused — the next response would be misaligned with the next
// request), and a fault inside an operation is redialed with capped
// exponential backoff. An operation that opens with no live connection
// dials once, so a peer known to be down fails fast. All three operations
// are idempotent reads, which is what makes retrying them safe.
package netsearch

import (
	"bufio"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/randx"
	"repro/internal/telemetry"
)

// RankedDB is one row of a selection ranking: the unit a shard scores, the
// wire carries, the front tier fuses and the HTTP surface serves. It is
// declared here, on the lowest layer that moves it, and aliased by the
// serving and service packages.
type RankedDB struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// RankedBatch is one query's outcome inside a batch ranking (serving.Item
// and service.BatchItem are aliases). Items fail independently: Error
// carries a per-query problem (no index terms, say) while the neighbors
// still rank.
type RankedBatch struct {
	Ranked []RankedDB `json:"ranked,omitempty"`
	Error  string     `json:"error,omitempty"`
	// Cold marks an item for which no tier found a learned model — the
	// typed form of the cold-federation condition. It never crosses a wire:
	// a streamed response reports it in Error, a buffered one turns "every
	// item cold" into a whole-request refusal (serving.RankBatch).
	Cold bool `json:"-"`
}

// StreamBatchRanker matches servables that rank their registered
// databases for a batch of queries, emitting each item the moment it
// completes — a selection service shard (see internal/cluster). The server
// forwards "rankstream" requests to it; a single-query rank is a stream of
// one.
type StreamBatchRanker interface {
	RankDBsStream(queries []string, alg string, k int, emit func(i int, item RankedBatch) error) error
}

// Registrar matches servables whose database registry can be administered
// remotely; the server forwards "register"/"unregister" requests to it.
// The cluster front tier uses this to place databases on their owning
// shard replicas.
type Registrar interface {
	RegisterDB(name, addr string) error
	UnregisterDB(name string) error
}

// hitCounter matches databases that report total hit counts (see
// sizeest.HitCounter); the server forwards "count" requests to it when
// available.
type hitCounter interface {
	TotalHits(query string) (int, error)
}

// Server serves a core.Database over TCP.
type Server struct {
	db core.Database
	ln net.Listener

	mu      sync.Mutex
	closed  bool
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	logger  *slog.Logger
	metrics *telemetry.Registry
}

// Serve starts a server on addr (use "127.0.0.1:0" to pick a free port)
// and accepts connections until Close.
func Serve(db core.Database, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netsearch: listen: %w", err)
	}
	s := &Server{db: db, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	//lint:ignore baregoroutine accept loop lives for the server, not a bounded fan-out; Close joins it via wg
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address, e.g. "127.0.0.1:43671".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// SetLogger installs a structured logger; every request is logged at
// debug level with its op and the trace ID carried on the frame. nil
// disables logging (the default).
func (s *Server) SetLogger(lg *slog.Logger) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.logger = lg
}

// SetMetrics installs a telemetry registry; the server counts requests
// per op under netsearch_server_requests_total{op="…"} and errors under
// netsearch_server_errors_total. nil (the default) disables counting.
func (s *Server) SetMetrics(reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metrics = reg
}

// observers returns the current logger and registry under the lock.
func (s *Server) observers() (*slog.Logger, *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logger, s.metrics
}

// Close stops accepting connections, closes existing ones, and waits for
// handler goroutines to finish. The live connections are snapshotted
// under the lock but closed outside it: closing is network I/O, and the
// handlers' exit paths take the same lock — holding it across their
// teardown would serialize shutdown behind the slowest peer.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		//lint:ignore maporder shutdown close order over live peers is not observable output
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		//lint:ignore baregoroutine one handler per live connection is the server's lifecycle, not pool fan-out; Close joins via wg
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	in := frameReader{br: bufio.NewReader(conn)}
	out := frameWriter{w: conn}
	for {
		req, err := in.request()
		if err != nil {
			return // disconnect, forged length or malformed frame; drop the connection
		}
		// Most ops answer with one frame. "rankstream" answers with a frame
		// sequence and owns the writer until its terminal frame (which also
		// carries out any answer still held from before it); either way
		// answers leave in request order, and a write failure means the
		// frame stream is desynced and the connection must go.
		var errMsg string
		var werr error
		if req.Op == opRankStream {
			errMsg, werr = s.streamRank(req, &out)
		} else {
			// In-order pipelining: a single-frame answer is held while more
			// requests are already waiting in the reader, and everything
			// held leaves in one write once the server has answered all it
			// has read (or holds flushBytes). A client that sends one
			// request and waits sees a write per answer, as before; one that
			// sends a group (Client.FetchAll) gets the group's answers
			// together, in request order. A peer that dies mid-frame fails
			// the next read and the held answers go with the connection.
			resp := s.dispatch(req)
			errMsg = resp.Error
			out.hold(&resp)
			if in.br.Buffered() == 0 || len(out.buf) >= flushBytes {
				werr = out.flush()
			}
		}
		if lg, reg := s.observers(); lg != nil || reg != nil {
			reg.Counter(serverRequests[req.Op.slot()]).Inc()
			if errMsg != "" {
				reg.Counter("netsearch_server_errors_total").Inc()
			}
			if lg != nil {
				lg.Debug("netsearch request",
					"op", req.Op.String(), telemetry.TraceKey, req.Trace, "err", errMsg)
			}
		}
		if werr != nil {
			return
		}
	}
}

// refusal is the error frame that answers a request the server will not
// serve; the connection stays healthy.
func refusal(msg string) response { return response{kind: kindError, Error: msg} }

// streamRank serves one "rankstream" request as a frame sequence on out,
// returning the ranker's whole-batch error text (sent as a terminal error
// frame) and any write failure. Item frames are held and written out as
// FlushDue says: in doubling groups, the last item never on its own — so a
// stream of one (a single-query rank) costs one write and one read, like
// any single-frame op. A terminal frame, eos or error, carries out
// everything still held before it.
func (s *Server) streamRank(req request, out *frameWriter) (errMsg string, werr error) {
	fail := func(msg string) (string, error) {
		resp := refusal(msg)
		return msg, out.send(&resp)
	}
	db, ok := s.db.(StreamBatchRanker)
	if !ok {
		return fail("rankstream unsupported by this database")
	}
	sent := 0
	err := db.RankDBsStream(req.Queries, req.Alg, req.N, func(i int, item RankedBatch) error {
		sent++
		frame := response{kind: kindItem, Item: streamItemFrame{Index: i, Ranked: item.Ranked, Error: item.Error}}
		out.hold(&frame)
		if FlushDue(sent, len(req.Queries), len(out.buf)) {
			return out.flush()
		}
		return nil
	})
	if err != nil {
		// If err was itself a write failure this send fails too and the
		// caller drops the connection — exactly right either way.
		return fail(err.Error())
	}
	return "", out.send(&response{kind: kindEOS})
}

func (s *Server) dispatch(req request) response {
	switch req.Op {
	case opSearch:
		ids, err := s.db.Search(req.Query, req.N)
		if err != nil {
			return refusal(err.Error())
		}
		return response{kind: kindIDs, IDs: ids}
	case opFetch:
		doc, err := s.db.Fetch(req.ID)
		if err != nil {
			return refusal(err.Error())
		}
		return response{kind: kindDoc, Doc: doc}
	case opCount:
		hc, ok := s.db.(hitCounter)
		if !ok {
			return refusal("count unsupported by this database")
		}
		n, err := hc.TotalHits(req.Query)
		if err != nil {
			return refusal(err.Error())
		}
		return response{kind: kindCount, Count: n}
	case opRegister:
		rg, ok := s.db.(Registrar)
		if !ok {
			return refusal("register unsupported by this database")
		}
		if err := rg.RegisterDB(req.Name, req.Addr); err != nil {
			return refusal(err.Error())
		}
		return response{kind: kindOK}
	case opUnregister:
		rg, ok := s.db.(Registrar)
		if !ok {
			return refusal("unregister unsupported by this database")
		}
		if err := rg.UnregisterDB(req.Name); err != nil {
			return refusal(err.Error())
		}
		return response{kind: kindOK}
	default:
		return refusal(fmt.Sprintf("unknown op 0x%02x", uint8(req.Op)))
	}
}

// Options configure a Client's fault tolerance. The zero value means no
// deadlines and the default retry policy.
type Options struct {
	// Timeout bounds each operation's time on the wire (send + receive).
	// An expired deadline is a transport error: the connection is marked
	// broken and the operation is retried on a fresh one. Zero means no
	// deadline.
	Timeout time.Duration
	// Retry governs redial-with-backoff after transport errors.
	Retry RetryPolicy
	// DialFunc replaces the plain TCP dial — the hook the fault-injection
	// harness (internal/faulty) uses to wrap connections. nil means
	// net.Dial("tcp", addr).
	DialFunc func(addr string) (net.Conn, error)
	// SleepFunc replaces time.Sleep between retry attempts so tests can
	// count backoffs instead of waiting them out. nil means time.Sleep.
	SleepFunc func(time.Duration)
	// Metrics receives the client's runtime counters and per-op latency
	// histograms (see DESIGN.md §9 for the inventory). nil disables
	// instrumentation at the cost of one branch per event.
	Metrics *telemetry.Registry
	// Logger receives a debug line per retry/redial, tagged with the
	// client's trace ID. nil disables logging.
	Logger *slog.Logger
}

// ClientStats counts a client's brushes with the network.
type ClientStats struct {
	// Faults is the number of transport errors observed.
	Faults int
	// Redials is the number of successful reconnections.
	Redials int
	// Retries is the number of extra attempts spent (a single operation
	// that succeeded on its third try contributes two).
	Retries int
}

// Client is a core.Database backed by a remote netsearch server. It is
// safe for concurrent use; requests on one connection are serialized.
// Transport failures are retried per its Options; server-reported errors
// (an unknown document id, say) are returned as-is, because the connection
// is still healthy and a retry would return the same answer.
type Client struct {
	addr string
	opts Options

	mu     sync.Mutex
	conn   net.Conn    // nil until the first dial
	in     frameReader // conn's read side; replaced with it
	wbuf   []byte      // the request frame being sent; reused across operations
	broken bool        // conn saw a transport fault and was closed
	closed bool
	rng    *randx.Source // jitter stream; guarded by mu
	stats  ClientStats
	trace  string // trace ID stamped on every wire frame; guarded by mu
}

// NewClient returns a client for the netsearch server at addr without
// touching the network: its first operation dials. A client is the one
// owner of its peer's connection for its whole life — it redials on its
// own, so a caller keeps one client per peer and closes it once.
func NewClient(addr string, opts Options) *Client {
	return &Client{
		addr: addr,
		opts: opts,
		rng:  randx.New(opts.Retry.withDefaults().Seed),
	}
}

// Dial connects to a netsearch server with default Options.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, Options{})
}

// DialWith is NewClient plus one eager dial, so misconfiguration fails at
// once; once connected, transport errors are retried per opts.Retry.
func DialWith(addr string, opts Options) (*Client, error) {
	c := NewClient(addr, opts)
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.attach(conn)
	return c, nil
}

// dial opens a new connection to the server.
func (c *Client) dial() (net.Conn, error) {
	dialFn := c.opts.DialFunc
	if dialFn == nil {
		dialFn = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	conn, err := dialFn(c.addr)
	if err != nil {
		c.opts.Metrics.Counter("netsearch_dial_errors_total").Inc()
		return nil, fmt.Errorf("netsearch: dial %s: %w", c.addr, err)
	}
	c.opts.Metrics.Counter("netsearch_dials_total").Inc()
	return conn, nil
}

// SetTrace stamps every subsequent wire frame with the given trace ID,
// correlating server-side logs with the request (or sampling run) the
// operation belongs to. The empty string clears it.
func (c *Client) SetTrace(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trace = id
}

// attach adopts conn as the client's transport. Caller holds mu (or is the
// constructor).
func (c *Client) attach(conn net.Conn) {
	c.conn = conn
	c.in = frameReader{br: bufio.NewReader(conn)}
	c.broken = false
}

// Close terminates the connection. A closed client stays closed: it will
// not redial, and closing it again does nothing.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.conn == nil || c.broken {
		c.closed = true
		return nil // already closed, never connected, or a fault closed it
	}
	c.closed = true
	//lint:ignore lockheld c.mu owns the connection: Close is terminal, nothing can be waiting on the lock for progress, and closing outside it would race a concurrent exchange's reads
	return c.conn.Close()
}

// Stats returns a snapshot of the client's fault counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *Client) sleep(d time.Duration) {
	c.opts.Metrics.Counter("netsearch_backoff_sleeps_total").Inc()
	c.opts.Metrics.Histogram("netsearch_backoff_seconds").Observe(d.Seconds())
	if c.opts.SleepFunc != nil {
		c.opts.SleepFunc(d)
		return
	}
	time.Sleep(d)
}

// remoteError marks a server-reported application error: the frame was
// decoded in full, the transport is intact, and retrying would only repeat
// the same answer.
type remoteError struct{ msg string }

func (e remoteError) Error() string { return e.msg }

// ErrStreamCanceled marks a rank stream the caller tore down mid-flight
// (its emit callback refused a frame — typically because the HTTP client
// disconnected). The abandoned connection is discarded, but the failure is
// the caller's decision: it is never retried and a gather tier must not
// count it against the shard's health.
var ErrStreamCanceled = errors.New("netsearch: stream canceled by caller")

// emitError wraps an error returned by a stream consumer's emit callback,
// so the retry loop can tell "the caller gave up" (never retry, surface
// the caller's error) from "the wire failed" (redial and retry).
type emitError struct{ err error }

func (e emitError) Error() string { return e.err.Error() }
func (e emitError) Unwrap() error { return e.err }

// run is the one entry every operation takes to the wire, single exchange
// or stream alike: it times the operation, takes the client lock, refuses
// a closed client, stamps the trace and hands exchange to the retry loop.
func (c *Client) run(req request, exchange func(request) (response, error)) (response, error) {
	// Per-op latency covers the whole operation as the caller sees it:
	// lock wait, retries, backoff sleeps and redials included.
	sp := c.opts.Metrics.StartSpan(opSeconds[req.Op])
	defer sp.End()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return response{}, fmt.Errorf("netsearch: %s %s: client is closed", req.Op, c.addr)
	}
	// A per-request trace (the cluster scatter path, where one client
	// serves many concurrent queries) wins over the client-wide one.
	if req.Trace == "" {
		req.Trace = c.trace
	}
	// The request is encoded once, here, and every attempt re-sends the
	// same bytes. One the peer would refuse on its length alone is refused
	// now, with a reason, instead of as three dropped connections.
	if req.Op == opFetch {
		c.wbuf = appendFetches(c.wbuf[:0], req.IDs, req.Trace)
	} else {
		c.wbuf = appendRequest(c.wbuf[:0], &req)
	}
	if len(c.wbuf)-frameHeader > maxFrame {
		c.wbuf = nil
		return response{}, fmt.Errorf("netsearch: %s %s: request exceeds the %d-byte frame limit", req.Op, c.addr, maxFrame)
	}
	//lint:ignore lockheld c.mu is the wire-serialization mechanism (one exchange at a time per client, a stream being one exchange); the whole retry loop — backoff sleeps, redials, exchanges — runs under it by design so frames never interleave (DESIGN.md §8)
	resp, err := c.retryLoop(req, exchange)
	c.wbuf = trim(c.wbuf)
	return resp, err
}

// retryLoop drives one operation through the redial-with-backoff policy.
// Caller holds c.mu, has checked closed, and has stamped the trace;
// exchange performs one full frame exchange (or stream) on the current
// connection.
func (c *Client) retryLoop(req request, exchange func(request) (response, error)) (response, error) {
	policy := c.opts.Retry.withDefaults()
	var lastErr error
	for attempt := 0; attempt < policy.Attempts; attempt++ {
		if attempt > 0 {
			c.stats.Retries++
			c.opts.Metrics.Counter("netsearch_retries_total").Inc()
			if c.opts.Logger != nil {
				c.opts.Logger.Debug("netsearch retry",
					"op", req.Op.String(), "attempt", attempt+1, "addr", c.addr,
					telemetry.TraceKey, c.trace, "err", fmt.Sprint(lastErr))
			}
			c.sleep(policy.Delay(attempt-1, c.rng))
		}
		if c.broken || c.conn == nil {
			conn, err := c.dial()
			if err != nil {
				if attempt == 0 {
					// The operation opened with no live connection: the
					// client never connected, or an earlier operation
					// discarded it. One dial settles it; backing off against
					// a peer already known to be down only stalls the caller.
					c.opts.Metrics.Counter("netsearch_op_failures_total").Inc()
					return response{}, err
				}
				lastErr = err
				continue
			}
			if c.conn != nil {
				c.stats.Redials++
				c.opts.Metrics.Counter("netsearch_redials_total").Inc()
			}
			c.attach(conn)
		}
		if c.opts.Timeout > 0 {
			// One deadline bounds the whole exchange, a stream included. It
			// is never cleared: the connection is touched only from here, and
			// every exchange arms its own first.
			c.conn.SetDeadline(time.Now().Add(c.opts.Timeout))
		}
		resp, err := exchange(req)
		if err == nil {
			return resp, nil
		}
		var rerr remoteError
		if errors.As(err, &rerr) {
			return response{}, errors.New(rerr.msg)
		}
		// Transport error or abandoned stream: the frame sequence may be
		// half-written or half-read, so responses on this connection can no
		// longer be matched to requests. Never reuse it.
		c.broken = true
		c.conn.Close()
		c.opts.Metrics.Counter("netsearch_conns_discarded_total").Inc()
		var eerr emitError
		if errors.As(err, &eerr) {
			// The caller aborted the stream. Its error (usually wrapping
			// ErrStreamCanceled or a context cancellation) surfaces as-is —
			// retrying would re-rank for a consumer that already left, and
			// counting a fault would smear the caller's choice onto the
			// network's record.
			return response{}, fmt.Errorf("netsearch: %s %s: %w", req.Op, c.addr, eerr.err)
		}
		c.stats.Faults++
		c.opts.Metrics.Counter("netsearch_faults_total").Inc()
		lastErr = err
	}
	c.opts.Metrics.Counter("netsearch_op_failures_total").Inc()
	return response{}, fmt.Errorf("netsearch: %s %s failed after %d attempts: %w",
		req.Op, c.addr, policy.Attempts, lastErr)
}

// send writes the request frame run encoded, in one Write: the scripted
// faults of internal/faulty count Write calls, and a half-written frame is
// what the broken-connection rule exists for.
func (c *Client) send() error {
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return fmt.Errorf("netsearch: send: %w", err)
	}
	return nil
}

// do performs one request/response exchange on the current connection.
// Caller holds mu.
func (c *Client) do(req request) (response, error) {
	if err := c.send(); err != nil {
		return response{}, err
	}
	resp, err := c.in.response()
	if err != nil {
		return response{}, fmt.Errorf("netsearch: receive: %w", err)
	}
	switch resp.kind {
	case kindError:
		return response{}, remoteError{resp.Error}
	case answers[req.Op]:
		return resp, nil
	}
	// A well-formed frame that does not answer the question means the peer
	// and we disagree about the protocol: treat it like a transport fault
	// so the connection is discarded.
	return response{}, fmt.Errorf("netsearch: frame kind 0x%02x does not answer %s", resp.kind, req.Op)
}

// doStream performs one "rankstream" exchange: send the request, then
// decode item frames into emit until the terminal eos or error frame.
// Caller holds mu for the whole stream — the frame sequence is one
// exchange, and interleaving another op's frames into it would desync the
// connection. An emit failure comes back wrapped in emitError so the retry
// loop knows the caller (not the wire) gave up.
func (c *Client) doStream(emit func(i int, item RankedBatch) error) error {
	if err := c.send(); err != nil {
		return err
	}
	for {
		resp, err := c.in.response()
		if err != nil {
			return fmt.Errorf("netsearch: receive: %w", err)
		}
		switch resp.kind {
		case kindError:
			return remoteError{resp.Error}
		case kindEOS:
			return nil
		case kindItem:
			if err := emit(resp.Item.Index, RankedBatch{
				Ranked: resp.Item.Ranked, Error: resp.Item.Error,
			}); err != nil {
				return emitError{err}
			}
		default:
			return fmt.Errorf("netsearch: frame kind 0x%02x inside a rankstream", resp.kind)
		}
	}
}

// RankDBsStream asks a selection-service shard (a servable implementing
// StreamBatchRanker) to rank a batch and emits each query's item the
// moment its frame arrives — the cluster scatter operation. Items arrive
// tagged with their query index. trace stamps this one request's wire
// frame (one client serves many concurrent scatters, so the client-wide
// SetTrace is the wrong scope); "" falls back to the client trace. Like
// the other ops it is a pure read and retries transport faults by
// replaying the whole stream on a fresh connection: emit can therefore
// see an index more than once, with bit-identical contents (ranking is
// deterministic), and consumers keep the first delivery. An error returned
// by emit cancels the stream: the connection is discarded (frames for a
// consumer that left would desync it), no retry happens, and the error is
// returned wrapped — cancellation conventionally wraps ErrStreamCanceled.
func (c *Client) RankDBsStream(queries []string, alg string, k int, trace string, emit func(i int, item RankedBatch) error) error {
	req := request{Op: opRankStream, Queries: queries, Alg: alg, N: k, Trace: trace}
	_, err := c.run(req, func(request) (response, error) {
		return response{}, c.doStream(emit)
	})
	return err
}

// Search implements core.Database.
func (c *Client) Search(query string, n int) ([]int, error) {
	resp, err := c.run(request{Op: opSearch, Query: query, N: n}, c.do)
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// Fetch implements core.Database: a fetch group of one.
func (c *Client) Fetch(id int) (corpus.Document, error) {
	docs, err := c.FetchAll([]int{id})
	if err != nil {
		return corpus.Document{}, err
	}
	return docs[0], nil
}

// fetchGroup is the most fetches one exchange carries. The client writes a
// whole group before it reads the first answer, so the group's requests
// must fit the socket buffers with room to spare whatever the documents
// weigh: were the write to block on a server itself blocked writing
// answers nobody reads yet, neither side would move again. 64 fetch frames
// are under 4 KiB with a long trace ID on each.
const fetchGroup = 64

// FetchAll implements core.BatchFetcher: the documents for ids, in order.
// The fetch frames of a group leave in one write and the answers are read
// back in the order asked (the server answers in request order and flushes
// once it has answered everything it has read), so a probe query's
// documents cost one round trip, not one each. Like every read it is
// idempotent: a transport fault replays the whole group on a fresh
// connection. A server-reported error for one id (an unknown document)
// fails the call with the first such error, after all of the group's
// answers have been read, so the connection stays aligned and healthy. One
// Options.Timeout bounds a group's exchange, and one op-latency
// observation (op="fetch") times it.
func (c *Client) FetchAll(ids []int) ([]corpus.Document, error) {
	docs := make([]corpus.Document, 0, len(ids))
	for len(ids) > 0 {
		group := ids[:min(len(ids), fetchGroup)]
		ids = ids[len(group):]
		at := len(docs)
		_, err := c.run(request{Op: opFetch, IDs: group}, func(request) (response, error) {
			var err error
			docs, err = c.doFetches(len(group), docs[:at])
			return response{}, err
		})
		if err != nil {
			return nil, err
		}
	}
	return docs, nil
}

// doFetches performs one fetch-group exchange on the current connection:
// send the frames run encoded, then read n answers, appending the
// documents to docs. Caller holds mu. An error frame does not end the
// reading — the answers behind it are already on their way and would be
// taken for the next request's — but the first one is what the group
// returns.
func (c *Client) doFetches(n int, docs []corpus.Document) ([]corpus.Document, error) {
	if err := c.send(); err != nil {
		return docs, err
	}
	var refused error
	for ; n > 0; n-- {
		resp, err := c.in.response()
		if err != nil {
			return docs, fmt.Errorf("netsearch: receive: %w", err)
		}
		switch resp.kind {
		case kindDoc:
			docs = append(docs, resp.Doc)
		case kindError:
			if refused == nil {
				refused = remoteError{resp.Error}
			}
		default:
			return docs, fmt.Errorf("netsearch: frame kind 0x%02x does not answer %s", resp.kind, opFetch)
		}
	}
	return docs, refused
}

// RankDBs ranks one query on a shard: a rankstream of one, its item's
// error surfaced as the call's. The cluster front scatters through
// RankDBsStream itself; the benchmark harness (benchmark/bench), which
// prices one single-query exchange, is this method's only caller outside
// tests, and its signature is kept for it.
func (c *Client) RankDBs(query, alg string, k int, trace string) ([]RankedDB, error) {
	var item RankedBatch
	err := c.RankDBsStream([]string{query}, alg, k, trace, func(_ int, it RankedBatch) error {
		item = it
		return nil
	})
	if err != nil {
		return nil, err
	}
	if item.Error != "" {
		return nil, errors.New(item.Error)
	}
	return item.Ranked, nil
}

// RegisterDB registers a database on a remote shard (a servable
// implementing Registrar). Registration converges: replaying it yields a
// server-reported "already registered" error and leaves the registry in
// the same state, so transport-level retries cannot corrupt placement.
func (c *Client) RegisterDB(name, addr string) error {
	_, err := c.run(request{Op: opRegister, Name: name, Addr: addr}, c.do)
	return err
}

// UnregisterDB removes a database from a remote shard's registry; like
// RegisterDB it converges under replay (a second delivery reports an
// unknown database and changes nothing).
func (c *Client) UnregisterDB(name string) error {
	_, err := c.run(request{Op: opUnregister, Name: name}, c.do)
	return err
}

// TotalHits asks the remote database for its total hit count for the
// query. Servers whose database does not support counting return an
// error. Together with Search and Fetch this makes the Client usable by
// the sizeest estimators.
func (c *Client) TotalHits(query string) (int, error) {
	resp, err := c.run(request{Op: opCount, Query: query}, c.do)
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}

var (
	_ core.Database     = (*Client)(nil)
	_ core.BatchFetcher = (*Client)(nil)
)
