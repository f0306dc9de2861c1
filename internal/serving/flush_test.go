package serving_test

// The flush rule on the HTTP hop (netsearch.FlushDue, stream.go): the same
// schedule internal/netsearch pins for the shard's rank stream, observed
// from the client's side of a real connection as chunk boundaries, NDJSON
// and SSE; the write counts; the byte cap; a tier that fails with frames
// held; and a ranking the encoder refuses, on all three reply shapes.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/serving"
	"repro/internal/telemetry"
)

// scriptTier is a fakeTier whose streams follow a script: item i is what
// item returns (nil: the fake's rows), the stream fails whole instead of
// ranking item failAt (when positive; past the last item, once all are
// ranked), and — when step is set — each item
// waits for a token on step and is reported on ranked once its emit has
// returned, the point at which the surface has written it or chosen to
// hold it.
type scriptTier struct {
	*fakeTier
	item         func(i int) serving.Item
	failAt       int
	step, ranked chan struct{}
}

var errBroke = errors.New("fake: upstream broke mid-stream")

func newScriptTier() *scriptTier {
	reg := telemetry.NewRegistry()
	return &scriptTier{fakeTier: &fakeTier{reg: reg, gate: admission.New(admission.Config{}, reg, "fake")}}
}

func (s *scriptTier) gated() *scriptTier {
	s.step, s.ranked = make(chan struct{}), make(chan struct{})
	return s
}

func (s *scriptTier) handler() http.Handler {
	return serving.NewHandler(s, "fake", map[string]string{"status": "ok"}, nil)
}

func (s *scriptTier) Rank(ctx context.Context, query, alg string, k int) ([]serving.RankedDB, error) {
	if s.item != nil {
		return s.item(0).Ranked, nil
	}
	return s.fakeTier.Rank(ctx, query, alg, k)
}

func (s *scriptTier) RankStream(ctx context.Context, queries []string, alg string, k int, emit func(int, serving.Item) error) error {
	if _, err := s.rank("", alg, k); err != nil {
		return err
	}
	for i := range queries {
		if s.step != nil {
			select {
			case <-s.step:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if s.failAt > 0 && i == s.failAt {
			return errBroke
		}
		rows, _ := s.rank("q", alg, k)
		it := serving.Item{Ranked: rows}
		if s.item != nil {
			it = s.item(i)
		}
		err := emit(i, it)
		if s.ranked != nil {
			select {
			case s.ranked <- struct{}{}:
			case <-ctx.Done():
			}
		}
		if err != nil {
			return err
		}
	}
	if s.failAt >= len(queries) && s.failAt > 0 {
		return errBroke
	}
	return nil
}

// stall is how long a test waits for something the rule owes it before
// calling it withheld.
const stall = 5 * time.Second

func (s *scriptTier) rankNext(t *testing.T) {
	t.Helper()
	select {
	case s.step <- struct{}{}:
	case <-time.After(stall):
		t.Fatal("the tier is not waiting to rank its next item")
	}
	select {
	case <-s.ranked:
	case <-time.After(stall):
		t.Fatal("the tier did not finish ranking an item")
	}
}

// rawStream posts a streamed batch of n queries over a connection of its
// own and returns the reader the response will arrive on. Reading the
// chunked body by hand is what shows the chunk boundaries; http.Client
// hides them.
func rawStream(t *testing.T, addr string, n int, sse bool) *bufio.Reader {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(4 * stall)); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(batchBody{Queries: make([]string, n), Alg: "cori", K: 1})
	if err != nil {
		t.Fatal(err)
	}
	accept := ""
	if sse {
		accept = "Accept: text/event-stream\r\n"
	}
	fmt.Fprintf(conn, "POST /rank/batch?stream=1 HTTP/1.1\r\nHost: test\r\n%sContent-Length: %d\r\n\r\n%s", accept, len(body), body)
	return bufio.NewReader(conn)
}

// readHeader reads a 200 response's status line and header, which a stream
// sends with its first frame.
func readHeader(t *testing.T, br *bufio.Reader) http.Header {
	t.Helper()
	status, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(status, "HTTP/1.1 200") {
		t.Fatalf("status line %q, %v", status, err)
	}
	header := http.Header{}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if line = strings.TrimSpace(line); line == "" {
			return header
		}
		name, value, _ := strings.Cut(line, ": ")
		header.Add(name, value)
	}
}

// readChunk reads one chunk of a chunked body; the terminating chunk reads
// as "".
func readChunk(t *testing.T, br *bufio.Reader) string {
	t.Helper()
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("reading a chunk header: %v", err)
	}
	size, err := strconv.ParseInt(strings.TrimSpace(line), 16, 32)
	if err != nil {
		t.Fatalf("chunk header %q: %v", line, err)
	}
	chunk := make([]byte, size+2) // the chunk and its CRLF
	if _, err := io.ReadFull(br, chunk); err != nil {
		t.Fatalf("reading a chunk of %d bytes: %v", size, err)
	}
	return string(chunk[:size])
}

// wantFrames checks that chunk holds exactly the item frames from..to and,
// when done, the terminal frame after them.
func wantFrames(t *testing.T, chunk string, sse bool, from, to int, done bool) {
	t.Helper()
	fs := frames(t, chunk, sse)
	want := to - from + 1
	if done {
		want++
	}
	if len(fs) != want {
		t.Fatalf("chunk holds %d frames, want items %d..%d (done=%v): %q", len(fs), from, to, done, chunk)
	}
	for j, f := range fs[:to-from+1] {
		if f.Index != from+j || f.Done || len(f.Ranked) != 1 {
			t.Fatalf("frame %d of the chunk = %+v, want item %d", j, f, from+j)
		}
	}
	if last := fs[len(fs)-1]; done && (!last.Done || last.Results != to+1) {
		t.Fatalf("terminal frame = %+v, want done after %d results", last, to+1)
	}
}

// TestStreamFlushScheduleHTTP: over a real connection, item 0 arrives while
// the tier is blocked before item 1, items 1–2 when item 2 is ranked, 3–6
// with 6, 7–14 with 14, and the last item in one chunk with the done frame;
// every chunk holds exactly its group.
func TestStreamFlushScheduleHTTP(t *testing.T) {
	for _, sse := range []bool{false, true} {
		t.Run(fmt.Sprintf("sse=%v", sse), func(t *testing.T) {
			const n = 16
			tier := newScriptTier().gated()
			srv := httptest.NewServer(tier.handler())
			// Registered before the connection's own cleanup so that it runs
			// after it: a failed test hangs up first, which cancels the gated
			// tier, which lets the server close.
			t.Cleanup(srv.Close)
			br := rawStream(t, srv.Listener.Addr().String(), n, sse)
			ctype := "application/x-ndjson"
			if sse {
				ctype = "text/event-stream"
			}
			delivered := 0
			for m := 1; m < n; m++ { // m items ranked, the last one not among them
				tier.rankNext(t)
				if m == 1 {
					if header := readHeader(t, br); header.Get("Content-Type") != ctype || header.Get("Transfer-Encoding") != "chunked" {
						t.Fatalf("stream header = %v", header)
					}
				}
				if m&(m+1) == 0 { // 1, 3, 7, 15
					wantFrames(t, readChunk(t, br), sse, delivered, m-1, false)
					delivered = m
				}
				if delivered < (m+1)/2 {
					t.Fatalf("%d of %d ranked items delivered; item i is owed by the time item 2i-1 is ranked", delivered, m)
				}
			}
			tier.rankNext(t)
			wantFrames(t, readChunk(t, br), sse, delivered, n-1, true)
			if end := readChunk(t, br); end != "" {
				t.Errorf("chunk after the done frame: %q", end)
			}
		})
	}
}

// nthWriteHook is a recorder that calls hook after its n-th body write has
// been recorded (hookWriter with a count).
type nthWriteHook struct {
	*httptest.ResponseRecorder
	n    int
	hook func()
}

func (w *nthWriteHook) Write(p []byte) (int, error) {
	n, err := w.ResponseRecorder.Write(p)
	if w.n--; w.n == 0 {
		w.hook()
	}
	return n, err
}

// writeCounter is a response writer that counts the surface's writes and
// flushes.
type writeCounter struct {
	*httptest.ResponseRecorder
	writes, flushes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.ResponseRecorder.Write(p)
}

func (w *writeCounter) Flush() { w.flushes++ }

func stream(h http.Handler, n int, header ...string) *writeCounter {
	w := &writeCounter{ResponseRecorder: httptest.NewRecorder()}
	body := batchBody{Queries: make([]string, n), Alg: "cori", K: 1}
	h.ServeHTTP(w, newRequest(context.Background(), http.MethodPost, "/rank/batch?stream=1", body, header...))
	return w
}

// TestStreamWriteCounts: a stream of n costs ⌊log₂ n⌋+1 writes, the last of
// them (the final item with the done frame) left to the server to send with
// the end of the response, not flushed on its own.
func TestStreamWriteCounts(t *testing.T) {
	for _, tc := range []struct{ n, writes int }{{1, 1}, {2, 2}, {15, 4}, {16, 5}, {1024, 11}} {
		for _, accept := range []string{"", "text/event-stream"} {
			w := stream(newScriptTier().handler(), tc.n, "Accept", accept)
			fs := frames(t, w.Body.String(), accept != "")
			if w.Code != http.StatusOK || len(fs) != tc.n+1 || !fs[tc.n].Done {
				t.Fatalf("stream of %d (Accept %q): status %d, %d frames", tc.n, accept, w.Code, len(fs))
			}
			if w.writes != tc.writes || w.flushes != tc.writes-1 {
				t.Errorf("stream of %d (Accept %q): %d writes, %d flushes, want %d and %d",
					tc.n, accept, w.writes, w.flushes, tc.writes, tc.writes-1)
			}
		}
	}
	// Refused before the first frame, a stream has written nothing of a
	// stream: the answer is a plain JSON error with its status.
	body := batchBody{Queries: []string{"q"}, Alg: "bogus-alg"}
	w := &writeCounter{ResponseRecorder: httptest.NewRecorder()}
	newScriptTier().handler().ServeHTTP(w, newRequest(context.Background(), http.MethodPost, "/rank/batch?stream=1", body))
	wantStatus(t, w.ResponseRecorder, http.StatusBadRequest, "refused stream")
	if w.flushes != 0 {
		t.Errorf("a refused stream flushed %d times", w.flushes)
	}
}

// TestStreamByteCap: a frame past the byte cap leaves at once instead of
// waiting for its group to fill.
func TestStreamByteCap(t *testing.T) {
	tier := newScriptTier()
	tier.item = func(int) serving.Item { return serving.Item{Error: strings.Repeat("x", 64<<10)} }
	w := stream(tier.handler(), 4)
	if fs := frames(t, w.Body.String(), false); len(fs) != 5 || !fs[4].Done {
		t.Fatalf("%d frames", len(fs))
	}
	// Item 1 by the count, item 2 by the cap, item 3 by the count, item 4
	// with the done frame; the count alone would have held 2 for 3.
	if w.writes != 4 || w.flushes != 3 {
		t.Errorf("%d writes and %d flushes, want 4 and 3", w.writes, w.flushes)
	}
}

// TestStreamTierFailsWithFramesHeld: the tier breaks with ranked items still
// held — items 4–6 of 16, which were waiting for item 7, and the only item
// of a stream of one, which was waiting for the done frame and had not yet
// sent the header. The client still gets every item that was ranked, once,
// and no done frame — which is how it knows the stream was cut.
func TestStreamTierFailsWithFramesHeld(t *testing.T) {
	for _, tc := range []struct{ n, failAt, writes int }{{16, 6, 3}, {1, 1, 1}} {
		tier := newScriptTier()
		tier.failAt = tc.failAt
		w := stream(tier.handler(), tc.n)
		fs := frames(t, w.Body.String(), false)
		if w.Code != http.StatusOK || len(fs) != tc.failAt {
			t.Fatalf("stream of %d: status %d, %d frames (%q), want the %d items ranked before the failure",
				tc.n, w.Code, len(fs), w.Body, tc.failAt)
		}
		for i, f := range fs {
			if f.Index != i || f.Done || len(f.Ranked) == 0 {
				t.Errorf("stream of %d: frame %d = %+v", tc.n, i, f)
			}
		}
		if w.writes != tc.writes {
			t.Errorf("stream of %d: %d writes, want %d: the held items leave in one when the stream is cut", tc.n, w.writes, tc.writes)
		}
		if got := tier.reg.Counter("fake_stream_aborts_total").Value(); got != 1 {
			t.Errorf("stream of %d: fake_stream_aborts_total = %d, want 1", tc.n, got)
		}
	}
}

// TestRefusedRanking: a ranking the encoder refuses (JSON has no infinity)
// is a 502 with a JSON error body on the buffered shapes — not a 200 with
// nothing behind it — and on a stream an item frame carrying the error,
// its neighbours unharmed.
func TestRefusedRanking(t *testing.T) {
	tier := newScriptTier()
	tier.item = func(i int) serving.Item {
		rows := append([]serving.RankedDB(nil), fakeRows...)
		if i == 0 {
			rows[1].Score = math.Inf(1)
		}
		return serving.Item{Ranked: rows}
	}
	h := tier.handler()
	for what, rr := range map[string]*httptest.ResponseRecorder{
		"rank":  do(h, http.MethodGet, "/rank?q=apple", nil),
		"batch": do(h, http.MethodPost, "/rank/batch", batchBody{Queries: []string{"a", "b"}}),
	} {
		wantStatus(t, rr, http.StatusBadGateway, "refused "+what)
		var body struct{ Error string }
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, "non-finite") {
			t.Errorf("refused %s: body %q (%v)", what, rr.Body, err)
		}
	}
	for _, sse := range []bool{false, true} {
		accept := ""
		if sse {
			accept = "text/event-stream"
		}
		rr := do(h, http.MethodPost, "/rank/batch?stream=1", batchBody{Queries: []string{"a", "b", "c"}}, "Accept", accept)
		fs := frames(t, rr.Body.String(), sse)
		if rr.Code != http.StatusOK || len(fs) != 4 {
			t.Fatalf("stream (sse=%v): status %d, %d frames", sse, rr.Code, len(fs))
		}
		if f := fs[0]; f.Index != 0 || !strings.Contains(f.Error, "non-finite") || f.Ranked != nil {
			t.Errorf("refused item's frame = %+v, want index 0 carrying the encoder's error", f)
		}
		for i, f := range fs[1:3] {
			if f.Index != i+1 || f.Error != "" || len(f.Ranked) != len(fakeRows) {
				t.Errorf("neighbour frame = %+v", f)
			}
		}
		if done := fs[3]; !done.Done || done.Results != 3 {
			t.Errorf("terminal frame = %+v", done)
		}
	}
	if got := tier.reg.Counter("fake_stream_ranks_total").Value(); got != 2 {
		t.Errorf("fake_stream_ranks_total = %d, want 2: a refused item is not a client abort", got)
	}
	if got := tier.reg.Counter("fake_stream_aborts_total").Value(); got != 0 {
		t.Errorf("fake_stream_aborts_total = %d, want 0", got)
	}
}
