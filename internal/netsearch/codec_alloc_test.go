package netsearch

import (
	"testing"

	"repro/internal/corpus"
)

// TestCodecHotpathsZeroAlloc holds the codec's encoders and readers to
// their promise: encoding every request op and response kind, the flush
// rule, and the cursor's readers over an encoded frame and over a count
// that claims too much allocate nothing once the buffer is warm.
func TestCodecHotpathsZeroAlloc(t *testing.T) {
	rows := []RankedDB{{Name: "db00", Score: 0.75}, {Name: "db01", Score: 0.5}}
	buf := make([]byte, 0, 4096)
	zero := func(what string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs a call, want 0", what, n)
		}
	}

	for _, req := range []request{
		{Op: opSearch, N: 10, Query: "stock market", Trace: "t1"},
		{Op: opFetch, ID: -1, Trace: "t1"},
		{Op: opCount, Query: "stock", Trace: "t1"},
		{Op: opRegister, Name: "db00", Addr: "127.0.0.1:9000", Trace: "t1"},
		{Op: opUnregister, Name: "db00", Trace: "t1"},
		{Op: opRankStream, N: 3, Queries: []string{"stock", "bond market"}, Alg: "cori", Trace: "t1"},
		{Op: numOps, Trace: "t1"},
	} {
		zero("appendRequest "+req.Op.String(), func() { buf = appendRequest(buf[:0], &req) })
	}
	ids := []int{3, 1, 4, 1, 5}
	zero("appendFetches", func() { buf = appendFetches(buf[:0], ids, "t1") })

	fw := frameWriter{buf: buf}
	for _, resp := range []response{
		{kind: kindIDs, IDs: ids},
		{kind: kindDoc, Doc: corpus.Document{ID: 7, Topic: 2, Title: "title", Text: "some text"}},
		{kind: kindCount, Count: 42},
		{kind: kindOK},
		{kind: kindItem, Item: streamItemFrame{Index: 1, Ranked: rows}},
		{kind: kindEOS},
		{kind: kindError, Error: "refused"},
	} {
		zero("frameWriter.hold", func() {
			fw.buf = fw.buf[:0]
			fw.hold(&resp)
		})
	}

	zero("FlushDue", func() {
		for sent := 1; sent <= 16; sent++ {
			FlushDue(sent, 16, 100)
		}
	})

	// The readers over an item frame, field by field as decodeResponse
	// walks it, but without share's one copy.
	frame := appendResponse(nil, &response{kind: kindItem, Item: streamItemFrame{Index: 1, Ranked: rows, Error: "e"}})
	payload := frame[frameHeader:]
	zero("cursor readers", func() {
		c := cursor{p: payload}
		if c.int() != 1 {
			t.Fatal("index")
		}
		n := c.count(9)
		c.take(8 * n)
		for i := 0; i <= n; i++ { // the error string, then the names
			c.take(c.count(1))
		}
		if c.uvarint() != 0 || !c.bad {
			t.Fatal("cursor read past the frame without going bad")
		}
	})
	// A count the bytes behind it cannot hold: five names claimed, one byte left.
	claim := []byte{5, 1}
	zero("cursor.count refusing a claim", func() {
		c := cursor{p: claim}
		if c.count(1) != 0 || !c.bad {
			t.Fatal("cursor took a count its bytes cannot hold")
		}
	})
}
