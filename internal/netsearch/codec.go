package netsearch

// The frame codec: every byte the fabric moves is written and read here,
// by hand, so that an exchange costs what its fields cost and nothing is
// described by reflection. See the package comment for the layout and
// DESIGN.md §13 for why there is one codec and no negotiation.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/corpus"
)

const (
	// frameHeader is the u32 little-endian payload length plus the kind byte.
	frameHeader = 5
	// maxFrame is the largest payload either end accepts, refused on the
	// header's word before anything is allocated. The largest honest frames
	// are a rankstream request of 1 024 queries (the HTTP surface caps the
	// batch body at 1 MiB) and a fetch of a document (a few KiB in the
	// generated corpora, tens at the log-normal tail); 4 MiB fits both
	// with room.
	maxFrame = 4 << 20
	// BufRetain is the most a reused buffer keeps between uses — a
	// connection's frame buffer here, a pooled reply buffer on the HTTP
	// surface (internal/serving): one large document or batch must not pin
	// its size for the process's lifetime. Exported so that both hops of a
	// stream hold flushBytes against the same limit.
	BufRetain = 64 << 10
	// flushBytes is the most a stream holds back between writes, whatever
	// FlushDue's count says. Half of BufRetain: a group that hits the cap has
	// grown its buffer past flushBytes but not past BufRetain, so a long
	// stream of wide rankings reuses one buffer instead of dropping it every
	// group, and neither hop's resident set follows the batch size.
	flushBytes = BufRetain / 2
)

// FlushDue is the one flush rule of the streaming read path, asked by both
// hops — a shard's rankstream (streamRank) and the HTTP surface's NDJSON/SSE
// stream (internal/serving) — after every item frame they append: sent is
// the count of item frames so far, this one included, total the number the
// stream will carry, and held the bytes appended since the last write.
// Frames leave in groups that double, after items 1, 3, 7, 15, …, and the
// last item never leaves on its own: the terminal frame follows it at once
// and carries out everything held. So the first result leaves alone
// (time-to-first-result is still one query's latency), result i is on the
// wire by the time result 2i−1 is ranked (nothing waits longer than the
// stream had already been running), and a stream of n costs ⌊log₂ n⌋+1
// writes, not n. The byte cap bounds what a group of wide rankings can pin.
// It is a rule and not a setting: its only inputs are the stream's own
// progress.
func FlushDue(sent, total, held int) bool {
	return sent < total && (sent&(sent+1) == 0 || held >= flushBytes)
}

// trim empties a frame buffer for reuse, or lets go of one that a large
// frame grew past BufRetain, so the resident set follows the traffic down
// again.
func trim(buf []byte) []byte {
	if cap(buf) > BufRetain {
		return nil
	}
	return buf[:0]
}

// op is a request frame's kind byte. Values at or beyond numOps are
// carried as received (the server answers them with an "unknown op" error
// frame) and fall into slot 0, opOther, of the metric-name tables.
type op uint8

const (
	opOther op = iota
	opSearch
	opFetch
	opCount
	opRegister
	opUnregister
	opRankStream
	numOps
)

// Response kinds. A response's kind says which fields follow, and which
// one a request may be answered with is fixed per op (answers).
const (
	kindIDs   byte = 0x81 + iota // search
	kindDoc                      // fetch
	kindCount                    // count
	kindOK                       // register, unregister
	kindItem                     // rankstream: one query's ranking
	kindEOS                      // rankstream: end of a complete stream
	kindError                    // any: the server's refusal, connection intact
)

var opNames = [numOps]string{"other", "search", "fetch", "count", "register", "unregister", "rankstream"}

// answers maps a single-frame op to the response kind that answers it.
var answers = [numOps]byte{
	opSearch:     kindIDs,
	opFetch:      kindDoc,
	opCount:      kindCount,
	opRegister:   kindOK,
	opUnregister: kindOK,
}

// The per-op series, as constant strings: both are looked up on every
// exchange and must not be concatenated there.
var (
	opSeconds = [numOps]string{
		`netsearch_op_seconds{op="other"}`,
		`netsearch_op_seconds{op="search"}`,
		`netsearch_op_seconds{op="fetch"}`,
		`netsearch_op_seconds{op="count"}`,
		`netsearch_op_seconds{op="register"}`,
		`netsearch_op_seconds{op="unregister"}`,
		`netsearch_op_seconds{op="rankstream"}`,
	}
	serverRequests = [numOps]string{
		`netsearch_server_requests_total{op="other"}`,
		`netsearch_server_requests_total{op="search"}`,
		`netsearch_server_requests_total{op="fetch"}`,
		`netsearch_server_requests_total{op="count"}`,
		`netsearch_server_requests_total{op="register"}`,
		`netsearch_server_requests_total{op="unregister"}`,
		`netsearch_server_requests_total{op="rankstream"}`,
	}
)

// slot clamps an op from the wire to the closed set of known operations,
// so a hostile peer cannot mint unbounded metric-label cardinality.
func (o op) slot() op {
	if o >= numOps {
		return opOther
	}
	return o
}

func (o op) String() string { return opNames[o.slot()] }

// request is one wire request. Trace carries the caller's trace ID on
// every frame, so a server-side log line can be correlated with the HTTP
// request (or sampling run) that caused it. The cluster ops reuse N as
// the rank cutoff k and carry the database name/addr for registration.
// IDs is the client's side of a fetch: a group of ids that crosses as one
// fetch frame each (appendFetches), which the server decodes one ID at a
// time.
type request struct {
	Op      op
	Query   string
	Queries []string
	N       int
	ID      int
	IDs     []int
	Alg     string
	Name    string
	Addr    string
	Trace   string
}

// response is one wire response; kind says which field is meant. Most ops
// answer with exactly one; "rankstream" — the one rank op — answers with a
// frame sequence: one item frame per query as its ranking completes,
// terminated by an eos frame (or an error frame for a whole-batch
// refusal). A stream with no terminal frame means the connection died
// mid-flight.
type response struct {
	kind  byte
	IDs   []int
	Doc   corpus.Document
	Count int
	Item  streamItemFrame
	Error string
}

// streamItemFrame is one query's result inside a rankstream response
// sequence. Index is the query's position in the request, so a fused
// gather can stream shard results out of arrival order.
type streamItemFrame struct {
	Index  int
	Ranked []RankedDB
	Error  string
}

// Integers travel as uvarints of their two's-complement bits: the small
// non-negative values the protocol deals in cost a byte or two, and a
// negative one (a fetch of id -1) still round-trips, in ten.

func appendInt(dst []byte, v int) []byte {
	return binary.AppendUvarint(dst, uint64(v))
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// beginFrame appends a frame header with the length still to come;
// endFrame, given beginFrame's result length, fills it in.
func beginFrame(dst []byte, kind byte) []byte {
	return append(dst, 0, 0, 0, 0, kind)
}

func endFrame(dst []byte, begun int) []byte {
	binary.LittleEndian.PutUint32(dst[begun-frameHeader:], uint32(len(dst)-begun))
	return dst
}

// appendRequest appends req as one frame: the op's integers, its strings,
// and last the trace ID every request carries.
func appendRequest(dst []byte, req *request) []byte {
	dst = beginFrame(dst, byte(req.Op))
	begun := len(dst)
	switch req.Op {
	case opSearch:
		dst = appendInt(dst, req.N)
		dst = appendString(dst, req.Query)
	case opFetch:
		dst = appendInt(dst, req.ID)
	case opCount:
		dst = appendString(dst, req.Query)
	case opRegister:
		dst = appendString(dst, req.Name)
		dst = appendString(dst, req.Addr)
	case opUnregister:
		dst = appendString(dst, req.Name)
	case opRankStream:
		dst = appendInt(dst, req.N)
		dst = appendInt(dst, len(req.Queries))
		dst = appendString(dst, req.Alg)
		for _, q := range req.Queries {
			dst = appendString(dst, q)
		}
	}
	dst = appendString(dst, req.Trace)
	return endFrame(dst, begun)
}

// appendFetches appends a fetch group: one fetch frame per id, each closing
// with the trace like any request, laid end to end for a single write.
func appendFetches(dst []byte, ids []int, trace string) []byte {
	req := request{Op: opFetch, Trace: trace}
	for _, id := range ids {
		req.ID = id
		dst = appendRequest(dst, &req)
	}
	return dst
}

// appendResponse appends resp as one frame. In every layout the integers
// (and an item's scores, one block of raw Float64bits) go first and the
// strings last, so the decoder can check a count against the bytes behind
// it and hold all of a frame's strings in one.
func appendResponse(dst []byte, resp *response) []byte {
	dst = beginFrame(dst, resp.kind)
	begun := len(dst)
	switch resp.kind {
	case kindIDs:
		dst = appendInt(dst, len(resp.IDs))
		for _, id := range resp.IDs {
			dst = appendInt(dst, id)
		}
	case kindDoc:
		dst = appendInt(dst, resp.Doc.ID)
		dst = appendInt(dst, resp.Doc.Topic)
		dst = appendString(dst, resp.Doc.Title)
		dst = appendString(dst, resp.Doc.Text)
	case kindCount:
		dst = appendInt(dst, resp.Count)
	case kindItem:
		dst = appendInt(dst, resp.Item.Index)
		dst = appendInt(dst, len(resp.Item.Ranked))
		for i := range resp.Item.Ranked {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(resp.Item.Ranked[i].Score))
		}
		dst = appendString(dst, resp.Item.Error)
		for i := range resp.Item.Ranked {
			dst = appendString(dst, resp.Item.Ranked[i].Name)
		}
	case kindError:
		dst = appendString(dst, resp.Error)
	}
	return endFrame(dst, begun)
}

// errMalformed reports a payload that is short, carries trailing bytes or
// claims more elements than it has bytes for. It is a protocol error: the
// peer and we disagree about the format, and the connection must go.
var errMalformed = errors.New("netsearch: malformed frame")

// cursor reads fields off a payload. A field that is not there marks the
// cursor bad and reads as zero, so a decoder runs straight through and
// asks once, at the end, whether all of it was real.
type cursor struct {
	p []byte
	// text, once share has set it, is a copy of everything that was then
	// left to read; the strings decoded from there on sub-slice it.
	text string
	bad  bool
}

func (c *cursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.p)
	if n <= 0 {
		c.bad, c.p = true, nil
		return 0
	}
	c.p = c.p[n:]
	return v
}

func (c *cursor) int() int { return int(c.uvarint()) }

// count reads an element count and refuses one the bytes left cannot
// hold, each element taking at least width of them: nothing is ever sized
// from a number the peer merely claimed.
func (c *cursor) count(width int) int {
	v := c.uvarint()
	if v > uint64(len(c.p)/width) {
		c.bad, c.p = true, nil
		return 0
	}
	return int(v)
}

// take returns the next n bytes as a view of the payload; n has been
// checked by count.
func (c *cursor) take(n int) []byte {
	b := c.p[:n]
	c.p = c.p[n:]
	return b
}

// share copies the rest of the payload into one string for the strings in
// it to share: a frame's names cost one allocation, not one each, and none
// of them is a view of the connection's buffer. Every layout puts its
// integers and scores first so that the copy holds little else.
func (c *cursor) share() { c.text = string(c.p) }

// str reads a length-prefixed string; share must have been called.
func (c *cursor) str() string {
	n := c.count(1)
	at := len(c.text) - len(c.p)
	c.take(n)
	return c.text[at : at+n]
}

func (c *cursor) done() error {
	if c.bad || len(c.p) != 0 {
		return errMalformed
	}
	return nil
}

// decodeRequest decodes a request payload. A kind that names no op comes
// back as itself with nothing decoded: the length prefix has already
// stepped over whatever it carried, and the server answers it in-band.
func decodeRequest(kind byte, payload []byte) (request, error) {
	req := request{Op: op(kind)}
	if req.Op.slot() == opOther {
		return req, nil
	}
	c := cursor{p: payload}
	switch req.Op {
	case opSearch:
		req.N = c.int()
		c.share()
		req.Query = c.str()
	case opFetch:
		req.ID = c.int()
		c.share()
	case opCount:
		c.share()
		req.Query = c.str()
	case opRegister:
		c.share()
		req.Name = c.str()
		req.Addr = c.str()
	case opUnregister:
		c.share()
		req.Name = c.str()
	case opRankStream:
		req.N = c.int()
		// Each query takes at least its length byte, and so does the alg
		// that comes before them.
		n := c.count(1)
		c.share()
		req.Alg = c.str()
		if n > 0 {
			req.Queries = make([]string, n)
			for i := range req.Queries {
				req.Queries[i] = c.str()
			}
		}
	}
	req.Trace = c.str()
	return req, c.done()
}

// decodeResponse decodes a response payload. Nothing it returns aliases
// payload: a decoded item is the consumer's to keep (a gather buffers
// items while the connection reads on), so its rows are a fresh slice and
// its names one fresh string.
func decodeResponse(kind byte, payload []byte) (response, error) {
	resp := response{kind: kind}
	c := cursor{p: payload}
	switch kind {
	case kindIDs:
		if n := c.count(1); n > 0 {
			resp.IDs = make([]int, n)
			for i := range resp.IDs {
				resp.IDs[i] = c.int()
			}
		}
	case kindDoc:
		resp.Doc.ID = c.int()
		resp.Doc.Topic = c.int()
		c.share()
		resp.Doc.Title = c.str()
		resp.Doc.Text = c.str()
	case kindCount:
		resp.Count = c.int()
	case kindOK, kindEOS:
	case kindItem:
		resp.Item.Index = c.int()
		// A row is 8 score bytes and at least a name-length byte.
		n := c.count(9)
		scores := c.take(8 * n)
		c.share()
		resp.Item.Error = c.str()
		if n > 0 {
			resp.Item.Ranked = make([]RankedDB, n)
			for i := range resp.Item.Ranked {
				resp.Item.Ranked[i] = RankedDB{
					Name:  c.str(),
					Score: math.Float64frombits(binary.LittleEndian.Uint64(scores[8*i:])),
				}
			}
		}
	case kindError:
		c.share()
		resp.Error = c.str()
	default:
		return response{}, fmt.Errorf("netsearch: unknown frame kind 0x%02x", kind)
	}
	return resp, c.done()
}

// frameReader reads frames off one connection into a payload buffer it
// reuses from frame to frame.
type frameReader struct {
	br  *bufio.Reader
	buf []byte
}

// next reads one frame. The payload is a view of the reader's buffer,
// good until the buffer is trimmed or the next frame read.
func (r *frameReader) next() (kind byte, payload []byte, err error) {
	hdr, err := r.br.Peek(frameHeader)
	if err != nil {
		return 0, nil, err
	}
	// An old line-JSON peer opens with `{"op`, which reads as 1.9 GB here;
	// it, like any forged length, is refused on sight instead of awaited.
	n := int(binary.LittleEndian.Uint32(hdr))
	if n > maxFrame {
		return 0, nil, fmt.Errorf("netsearch: frame of %d bytes exceeds the %d-byte limit", n, maxFrame)
	}
	kind = hdr[4]
	r.br.Discard(frameHeader)
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	payload = r.buf[:n]
	if _, err := io.ReadFull(r.br, payload); err != nil {
		return 0, nil, err
	}
	return kind, payload, nil
}

func (r *frameReader) request() (request, error) {
	kind, payload, err := r.next()
	if err != nil {
		return request{}, err
	}
	req, err := decodeRequest(kind, payload)
	r.buf = trim(r.buf)
	return req, err
}

func (r *frameReader) response() (response, error) {
	kind, payload, err := r.next()
	if err != nil {
		return response{}, err
	}
	resp, err := decodeResponse(kind, payload)
	r.buf = trim(r.buf)
	return resp, err
}

// frameWriter builds response frames in a buffer it reuses and hands them
// to the connection in one Write, so that frames can be held back to share
// that write with the ones after them.
type frameWriter struct {
	w   io.Writer
	buf []byte
}

// hold encodes a frame and keeps it for the next flush to carry.
func (fw *frameWriter) hold(resp *response) {
	fw.buf = appendResponse(fw.buf, resp)
}

// flush writes everything held, in one Write.
func (fw *frameWriter) flush() error {
	_, err := fw.w.Write(fw.buf)
	fw.buf = trim(fw.buf)
	return err
}

// send encodes a frame and writes it with everything held before it.
func (fw *frameWriter) send(resp *response) error {
	fw.hold(resp)
	return fw.flush()
}
