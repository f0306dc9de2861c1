package netsearch

// Tests for the binary frame codec: a seeded round-trip property over
// every kind, the allocation bounds a forged frame must not breach, the
// ownership rule for decoded items, and the fuzz target.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/randx"
)

// hostile are the substrings the line-JSON codec escaped, rewrote or could
// not carry; the binary one must move every byte as it is.
var hostile = []string{`"`, "\n", "\x00", "\xff\xfe", "\xc3", `\`, "é", "apple", " ", "{\"op\""}

func randString(rng *randx.Source, maxParts int) string {
	var b strings.Builder
	for n := rng.Intn(maxParts + 1); n > 0; n-- {
		b.WriteString(hostile[rng.Intn(len(hostile))])
	}
	return b.String()
}

var edgeInts = []int{0, 1, 127, 128, 1 << 20, math.MaxInt, -1, math.MinInt}

func randInt(rng *randx.Source) int {
	if rng.Intn(2) == 0 {
		return edgeInts[rng.Intn(len(edgeInts))]
	}
	return rng.Intn(1 << 16)
}

var edgeScores = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8000000000001), // a NaN with a payload
	0.4, 1.0 / 3,
}

func randRows(rng *randx.Source, n int) []RankedDB {
	if n == 0 {
		return nil
	}
	rows := make([]RankedDB, n)
	for i := range rows {
		rows[i] = RankedDB{Name: randString(rng, 4), Score: edgeScores[rng.Intn(len(edgeScores))]}
		if rng.Intn(3) == 0 {
			rows[i].Score = rng.Float64()
		}
	}
	return rows
}

// randRequests returns one request of every op.
func randRequests(rng *randx.Source) []request {
	queries := make([]string, []int{0, 1, 16, 1024}[rng.Intn(4)])
	for i := range queries {
		queries[i] = randString(rng, 3)
	}
	if len(queries) == 0 {
		queries = nil
	}
	trace := randString(rng, 2)
	return []request{
		{Op: opSearch, Query: randString(rng, 5), N: randInt(rng), Trace: trace},
		{Op: opFetch, ID: randInt(rng), Trace: trace},
		{Op: opCount, Query: randString(rng, 5), Trace: trace},
		{Op: opRegister, Name: randString(rng, 3), Addr: randString(rng, 3), Trace: trace},
		{Op: opUnregister, Name: randString(rng, 3), Trace: trace},
		{Op: opRankStream, Queries: queries, Alg: randString(rng, 2), N: randInt(rng), Trace: trace},
	}
}

// randResponses returns one response of every kind.
func randResponses(rng *randx.Source) []response {
	var ids []int
	for n := []int{0, 1, 4, 300}[rng.Intn(4)]; n > 0; n-- {
		ids = append(ids, randInt(rng))
	}
	text := strings.Repeat(randString(rng, 8), []int{0, 1, 700}[rng.Intn(3)])
	item := streamItemFrame{Index: randInt(rng), Ranked: randRows(rng, []int{0, 1, 10, 100}[rng.Intn(4)])}
	if rng.Intn(3) == 0 {
		item = streamItemFrame{Index: randInt(rng), Error: randString(rng, 4)}
	}
	return []response{
		{kind: kindIDs, IDs: ids},
		{kind: kindDoc, Doc: corpus.Document{ID: randInt(rng), Title: randString(rng, 3), Text: text, Topic: randInt(rng)}},
		{kind: kindCount, Count: randInt(rng)},
		{kind: kindOK},
		{kind: kindItem, Item: item},
		{kind: kindEOS},
		{kind: kindError, Error: randString(rng, 6)},
	}
}

// sameResponse compares two responses with scores held to their bits:
// == would pass +0 for -0 and fail a NaN against itself.
func sameResponse(a, b response) bool {
	ra, rb := a.Item.Ranked, b.Item.Ranked
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i].Name != rb[i].Name || math.Float64bits(ra[i].Score) != math.Float64bits(rb[i].Score) {
			return false
		}
	}
	a.Item.Ranked, b.Item.Ranked = nil, nil
	return reflect.DeepEqual(a, b)
}

// readerOver is a connection's read side over bytes already received.
func readerOver(frames []byte) *frameReader {
	return &frameReader{br: bufio.NewReader(bytes.NewReader(frames))}
}

func TestCodecRoundTrip(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := randx.New(seed)
		reqs, resps := randRequests(rng), randResponses(rng)

		// Every frame of the seed goes down one stream, as on a connection,
		// so a length that is off by one shows up in the frame after it.
		var stream []byte
		for i := range reqs {
			stream = appendRequest(stream, &reqs[i])
		}
		in := readerOver(stream)
		for _, want := range reqs {
			got, err := in.request()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, want.Op, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d %s: decoded %+v, want %+v", seed, want.Op, got, want)
			}
		}
		if _, err := in.request(); err != io.EOF {
			t.Errorf("seed %d: after the last request: %v, want io.EOF", seed, err)
		}

		stream = stream[:0]
		for i := range resps {
			stream = appendResponse(stream, &resps[i])
		}
		in = readerOver(stream)
		for _, want := range resps {
			got, err := in.response()
			if err != nil {
				t.Fatalf("seed %d kind 0x%02x: %v", seed, want.kind, err)
			}
			if !sameResponse(got, want) {
				t.Errorf("seed %d kind 0x%02x: decoded %+v, want %+v", seed, want.kind, got, want)
			}
		}
	}
}

// TestFrameLayoutGolden pins the bytes of one frame of each direction.
// internal/faulty's truncation test hand-writes the first.
func TestFrameLayoutGolden(t *testing.T) {
	req := appendRequest(nil, &request{Op: opSearch, Query: "apple", N: 4})
	if want := "\x08\x00\x00\x00\x01\x04\x05apple\x00"; string(req) != want {
		t.Errorf("search frame = %q, want %q", req, want)
	}
	item := appendResponse(nil, &response{kind: kindItem, Item: streamItemFrame{
		Index: 2, Ranked: []RankedDB{{Name: "db", Score: 1}},
	}})
	if want := "\x0e\x00\x00\x00\x85\x02\x01\x00\x00\x00\x00\x00\x00\xf0\x3f\x00\x02db"; string(item) != want {
		t.Errorf("item frame = %q, want %q", item, want)
	}
}

// TestMetricNameTables: the constant tables spell exactly the series the
// per-exchange concatenation used to.
func TestMetricNameTables(t *testing.T) {
	for o := opOther; o < numOps; o++ {
		if want := `netsearch_op_seconds{op="` + opNames[o] + `"}`; opSeconds[o] != want {
			t.Errorf("opSeconds[%d] = %s, want %s", o, opSeconds[o], want)
		}
		if want := `netsearch_server_requests_total{op="` + opNames[o] + `"}`; serverRequests[o] != want {
			t.Errorf("serverRequests[%d] = %s, want %s", o, serverRequests[o], want)
		}
	}
	if got := op(0xee).String(); got != "other" {
		t.Errorf("unknown op names itself %q, want the clamp's other", got)
	}
}

func TestMalformedPayloadsRejected(t *testing.T) {
	item := appendResponse(nil, &response{kind: kindItem, Item: streamItemFrame{
		Ranked: []RankedDB{{Name: "db-a", Score: 0.5}, {Name: "db-b", Score: 0.25}},
	}})[frameHeader:]
	search := appendRequest(nil, &request{Op: opSearch, Query: "apple", N: 4, Trace: "t"})[frameHeader:]
	for cut := 0; cut < len(item); cut++ {
		if _, err := decodeResponse(kindItem, item[:cut]); err == nil {
			t.Errorf("item payload cut to %d of %d bytes decoded", cut, len(item))
		}
	}
	for cut := 0; cut < len(search); cut++ {
		if _, err := decodeRequest(byte(opSearch), search[:cut]); err == nil {
			t.Errorf("search payload cut to %d of %d bytes decoded", cut, len(search))
		}
	}
	if _, err := decodeResponse(kindItem, append(item[:len(item):len(item)], 0)); err == nil {
		t.Error("item payload with a trailing byte decoded")
	}
	if _, err := decodeRequest(byte(opSearch), append(search[:len(search):len(search)], 0)); err == nil {
		t.Error("search payload with a trailing byte decoded")
	}
	if _, err := decodeResponse(kindEOS, []byte{0}); err == nil {
		t.Error("eos with a payload decoded")
	}
	if _, err := decodeResponse(0x55, nil); err == nil {
		t.Error("unknown response kind decoded")
	}
}

// allocatedBy reports the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// forgedCount is a payload of the given kind whose element count claims
// 2^28 of something over a few bytes.
func forgedCount(lead ...uint64) []byte {
	var p []byte
	for _, v := range lead {
		p = binary.AppendUvarint(p, v)
	}
	p = binary.AppendUvarint(p, 1<<28)
	return append(p, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
}

func TestForgedFrameFailsFast(t *testing.T) {
	const budget = 1 << 20
	srv, c := startServer(t, "alpha")

	// A header claiming 2^31 bytes over a 20-byte body, as a request to the
	// server: refused on the header, connection dropped, nothing awaited.
	t.Run("length/server", func(t *testing.T) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		frame := binary.LittleEndian.AppendUint32(nil, 1<<31)
		frame = append(frame, byte(opSearch))
		frame = append(frame, make([]byte, 20)...)
		got := allocatedBy(func() {
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Read(make([]byte, 1)); err == nil {
				t.Error("server answered a 2 GiB frame")
			} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Error("server is waiting for 2 GiB instead of refusing the header")
			}
		})
		if got > budget {
			t.Errorf("forged length cost %d bytes of allocation, want < %d", got, budget)
		}
	})

	// What a line-JSON peer opens with reads as a 1.9 GB length.
	t.Run("length/json-peer", func(t *testing.T) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write([]byte(`{"op":"search","query":"alpha","n":1}` + "\n")); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Error("server answered a JSON request")
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Error("server is waiting out a JSON request as a 1.9 GB frame")
		}
	})

	// The same forged header as a response to the client.
	t.Run("length/client", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			frame := binary.LittleEndian.AppendUint32(nil, 1<<31)
			frame = append(frame, kindIDs)
			conn.Write(append(frame, make([]byte, 20)...))
			io.Copy(io.Discard, conn)
		}()
		liar, err := DialWith(ln.Addr().String(), Options{Timeout: 5 * time.Second, Retry: RetryPolicy{Attempts: 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer liar.Close()
		got := allocatedBy(func() {
			if _, err := liar.Search("alpha", 1); err == nil || !strings.Contains(err.Error(), "exceeds") {
				t.Errorf("search against a forged length = %v, want the frame-limit error", err)
			}
		})
		if got > budget {
			t.Errorf("forged length cost the client %d bytes of allocation, want < %d", got, budget)
		}
	})

	// A count claiming 2^28 elements over a dozen bytes, in every payload
	// that sizes a slice from one.
	counts := []struct {
		name   string
		decode func() error
	}{
		{"rows", func() error { _, err := decodeResponse(kindItem, forgedCount(0)); return err }},
		{"ids", func() error { _, err := decodeResponse(kindIDs, forgedCount()); return err }},
		{"queries", func() error { _, err := decodeRequest(byte(opRankStream), forgedCount(10)); return err }},
	}
	for _, tc := range counts {
		t.Run("count/"+tc.name, func(t *testing.T) {
			got := allocatedBy(func() {
				if err := tc.decode(); err == nil {
					t.Error("forged count decoded")
				}
			})
			if got > budget {
				t.Errorf("forged count cost %d bytes of allocation, want < %d", got, budget)
			}
		})
	}

	// None of it cost the server its other connections.
	if ids, err := c.Search("alpha", 1); err != nil || len(ids) != 1 {
		t.Errorf("search after the forged frames = %v, %v", ids, err)
	}
}

// TestDecodedItemOutlivesBuffer: a gather buffers decoded items while the
// connection reads on, so an item must own its rows and names.
func TestDecodedItemOutlivesBuffer(t *testing.T) {
	a := response{kind: kindItem, Item: streamItemFrame{Index: 0, Ranked: []RankedDB{
		{Name: "alpha-db", Score: 0.75}, {Name: "bravo-db", Score: 0.5},
	}}}
	b := response{kind: kindItem, Item: streamItemFrame{Index: 1, Ranked: []RankedDB{
		{Name: "xray--db", Score: 0.25}, {Name: "zulu--db", Score: 0.125},
	}}}
	in := readerOver(appendResponse(appendResponse(nil, &a), &b))
	gotA, err := in.response()
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := in.response()
	if err != nil {
		t.Fatal(err)
	}
	// Scribble over whatever the reader still holds, as the next frames of
	// a long stream would.
	for i := range in.buf[:cap(in.buf)] {
		in.buf[:cap(in.buf)][i] = '#'
	}
	if !sameResponse(gotA, a) {
		t.Errorf("item A after the buffer was reused = %+v, want %+v", gotA.Item, a.Item)
	}
	if !sameResponse(gotB, b) {
		t.Errorf("item B after the buffer was reused = %+v, want %+v", gotB.Item, b.Item)
	}
}

// TestLargeFrameBufferReleased: one large document must not pin its size
// on either end of the connection.
func TestLargeFrameBufferReleased(t *testing.T) {
	big := response{kind: kindDoc, Doc: corpus.Document{ID: 1, Text: strings.Repeat("x", 4*BufRetain)}}
	small := response{kind: kindCount, Count: 3}

	in := readerOver(appendResponse(appendResponse(nil, &big), &small))
	got, err := in.response()
	if err != nil || len(got.Doc.Text) != 4*BufRetain {
		t.Fatalf("large document: %d bytes of text, %v", len(got.Doc.Text), err)
	}
	if cap(in.buf) > BufRetain {
		t.Errorf("reader kept %d bytes after a large frame, want at most %d", cap(in.buf), BufRetain)
	}
	if got, err = in.response(); err != nil || got.Count != 3 {
		t.Errorf("frame after the large one = %+v, %v", got, err)
	}

	out := frameWriter{w: io.Discard}
	if err := out.send(&big); err != nil {
		t.Fatal(err)
	}
	if cap(out.buf) > BufRetain {
		t.Errorf("writer kept %d bytes after a large frame, want at most %d", cap(out.buf), BufRetain)
	}
}

// recordingShard remembers what a rankstream request decoded to and
// answers every query with its own rows.
type recordingShard struct {
	fakeShard
	queries []string
	alg     string
	k       int
}

func (r *recordingShard) RankDBsStream(queries []string, alg string, k int, emit func(int, RankedBatch) error) error {
	r.queries, r.alg, r.k = queries, alg, k
	return r.fakeShard.RankDBsStream(queries, alg, 0, emit)
}

// TestHostileBytesOverTCP: names and queries cross a real connection byte
// for byte — the JSON codec rewrote invalid UTF-8 to U+FFFD.
func TestHostileBytesOverTCP(t *testing.T) {
	rows := []RankedDB{
		{Name: "db\xff\xfe", Score: math.Copysign(0, -1)},
		{Name: "\"quoted\"\n\x00", Score: math.SmallestNonzeroFloat64},
		{Name: "", Score: math.MaxFloat64},
	}
	sh := &recordingShard{fakeShard: fakeShard{ranked: rows, perItemErr: map[int]string{1: "bad \xc3 term"}}}
	c := startShardServer(t, sh)
	queries := []string{"caf\xe9 \"au\" lait", "\x00\n", ""}
	items := collectRankStream(t, c, queries, math.MaxInt)
	if !reflect.DeepEqual(sh.queries, queries) || sh.alg != "cori" || sh.k != math.MaxInt {
		t.Errorf("shard decoded queries %q alg %q k %d", sh.queries, sh.alg, sh.k)
	}
	for i, it := range items {
		want := response{Item: streamItemFrame{Ranked: rows}}
		if i == 1 {
			want = response{Item: streamItemFrame{Error: "bad \xc3 term"}}
		}
		if !sameResponse(response{Item: streamItemFrame{Ranked: it.Ranked, Error: it.Error}}, want) {
			t.Errorf("item %d = %+v, want %+v", i, it, want.Item)
		}
	}
}

func FuzzDecodeFrame(f *testing.F) {
	// One small valid frame of each kind; the large shapes are the
	// round-trip test's, and would only slow the fuzzer's minimizer.
	for _, req := range []request{
		{Op: opSearch, Query: "apple", N: 4, Trace: "t-1"},
		{Op: opFetch, ID: 17},
		{Op: opCount, Query: "apple"},
		{Op: opRegister, Name: "db-a", Addr: "127.0.0.1:9"},
		{Op: opUnregister, Name: "db-a"},
		{Op: opRankStream, Queries: []string{"apple pie", ""}, Alg: "cori", N: 10, Trace: "t-2"},
	} {
		f.Add(appendRequest(nil, &req))
	}
	for _, resp := range []response{
		{kind: kindIDs, IDs: []int{3, 9, 17, 2}},
		{kind: kindDoc, Doc: corpus.Document{ID: 17, Title: "t", Text: "apple pie", Topic: 1}},
		{kind: kindCount, Count: 2},
		{kind: kindOK},
		{kind: kindItem, Item: streamItemFrame{Index: 1, Ranked: []RankedDB{{Name: "db-a", Score: 0.9}, {Name: "db-b", Score: 0.4}}}},
		{kind: kindItem, Item: streamItemFrame{Error: "no index terms"}},
		{kind: kindEOS},
		{kind: kindError, Error: "unknown op"},
	} {
		f.Add(appendResponse(nil, &resp))
	}
	f.Add(forgedCount(0))
	f.Add([]byte(`{"op":"search","query":"apple","n":4}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// As a frame stream off a connection: whatever the header says, a
		// reader never holds more than maxFrame.
		in := readerOver(data)
		for {
			kind, payload, err := in.next()
			if err != nil {
				break
			}
			if len(payload) > maxFrame {
				t.Fatalf("reader returned a %d-byte payload", len(payload))
			}
			checkDecoders(t, kind, payload)
		}
		// And as one payload, so the fuzzer need not find a length first.
		if len(data) > 0 {
			checkDecoders(t, data[0], data[1:])
		}
	})
}

// checkDecoders runs both decoders over one payload. Either may refuse it;
// one that accepts it has sized nothing beyond what the payload's bytes
// could hold, and its value survives a trip back through the encoder.
func checkDecoders(t *testing.T, kind byte, payload []byte) {
	if req, err := decodeRequest(kind, payload); err == nil && req.Op.slot() != opOther {
		if len(req.Queries) > len(payload) {
			t.Fatalf("%d queries decoded from %d bytes", len(req.Queries), len(payload))
		}
		again, err := decodeRequest(kind, appendRequest(nil, &req)[frameHeader:])
		if err != nil || !reflect.DeepEqual(again, req) {
			t.Fatalf("request %+v re-decoded as %+v, %v", req, again, err)
		}
	}
	if resp, err := decodeResponse(kind, payload); err == nil {
		if len(resp.IDs) > len(payload) || 9*len(resp.Item.Ranked) > len(payload) {
			t.Fatalf("%d ids, %d rows decoded from %d bytes", len(resp.IDs), len(resp.Item.Ranked), len(payload))
		}
		again, err := decodeResponse(kind, appendResponse(nil, &resp)[frameHeader:])
		if err != nil || !sameResponse(again, resp) {
			t.Fatalf("response %+v re-decoded as %+v, %v", resp, again, err)
		}
	}
}

var (
	benchFrame []byte
	benchResp  response
)

// BenchmarkWireCodec prices the codec alone, off the socket: one 10-row
// item frame (what a front_stream query costs twice, once per shard) each
// way, and the decode of one fetched document.
func BenchmarkWireCodec(b *testing.B) {
	rows := make([]RankedDB, 10)
	for i := range rows {
		rows[i] = RankedDB{Name: "db-0" + string(rune('0'+i)) + "-bench", Score: 0.4 + float64(i)/64}
	}
	item := response{kind: kindItem, Item: streamItemFrame{Index: 7, Ranked: rows}}
	doc := response{kind: kindDoc, Doc: corpus.Document{
		ID: 17, Title: "doc-17 (bench)", Text: strings.Repeat("lorem ipsum dolor ", 40), Topic: 3,
	}}
	b.Run("item10-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchFrame = appendResponse(benchFrame[:0], &item)
		}
	})
	for _, tc := range []struct {
		name string
		resp response
	}{{"item10-decode", item}, {"fetch-decode", doc}} {
		payload := appendResponse(nil, &tc.resp)[frameHeader:]
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if benchResp, err = decodeResponse(tc.resp.kind, payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
