package netsearch

// Tests for the flush rule of a rank stream (FlushDue; DESIGN.md §10): its
// three promises — the first item leaves alone, item i is on the wire by
// the time item 2i−1 is ranked, a stream of n costs ⌊log₂ n⌋+1 writes —
// the byte cap, and what a terminal frame or a departing consumer does to
// frames still held. The server side runs the real handler over a net.Pipe
// whose server end counts Write calls; a pipe write completes only when the
// client has read it, so a count read between two of the ranker's steps is
// exact.

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// countingConn counts the Write calls made on it.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// pipeServer serves db to one client over an in-memory pipe and returns
// the client and the server end's write counter.
func pipeServer(t *testing.T, db core.Database, opts Options) (*Client, *countingConn) {
	t.Helper()
	c, _, far := countedPipe(t, db, opts)
	return c, far
}

// countedPipe is pipeServer with the client end's writes counted too.
func countedPipe(t *testing.T, db core.Database, opts Options) (c *Client, near, far *countingConn) {
	t.Helper()
	nearEnd, farEnd := net.Pipe()
	srv := &Server{db: db, conns: map[net.Conn]struct{}{}}
	near, far = &countingConn{Conn: nearEnd}, &countingConn{Conn: farEnd}
	srv.wg.Add(1)
	go srv.handle(far)
	opts.DialFunc = func(string) (net.Conn, error) { return near, nil }
	c, err := DialWith("pipe", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// A failed test can leave the stream parked on a gated shard, holding
		// the client's lock: let the shard go first.
		if g, ok := db.(*gatedShard); ok {
			close(g.over)
		}
		c.Close()
		srv.wg.Wait()
	})
	return c, near, far
}

// gatedShard ranks one item per token received on step and reports on
// ranked once the item's emit has returned — the point at which the server
// has either written the item or decided to hold it.
type gatedShard struct {
	fakeShard
	step   chan struct{}
	ranked chan int
	over   chan struct{}           // closed by pipeServer's cleanup, so a failed test leaves no shard waiting
	item   func(i int) RankedBatch // nil: one small row
	failAt int                     // when positive: return errShardBroke instead of ranking item failAt
}

var errShardBroke = errors.New("shard broke mid-stream")

func newGatedShard() *gatedShard {
	return &gatedShard{step: make(chan struct{}), ranked: make(chan int), over: make(chan struct{})}
}

func (g *gatedShard) RankDBsStream(queries []string, alg string, k int, emit func(int, RankedBatch) error) error {
	for i := range queries {
		select {
		case <-g.step:
		case <-g.over:
			return errors.New("test over")
		}
		if g.failAt > 0 && i == g.failAt {
			return errShardBroke
		}
		item := RankedBatch{Ranked: []RankedDB{{Name: "db-a", Score: 0.5}}}
		if g.item != nil {
			item = g.item(i)
		}
		err := emit(i, item)
		select {
		case g.ranked <- i:
		case <-g.over:
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// rankNext lets the shard rank its next item and waits until it has.
func (g *gatedShard) rankNext(t *testing.T) {
	t.Helper()
	g.step <- struct{}{}
	select {
	case <-g.ranked:
	case <-time.After(stall):
		t.Fatal("the shard did not finish ranking an item")
	}
}

// stall is how long a test waits for something the rule owes it before
// calling it withheld.
const stall = 5 * time.Second

// streamInBackground starts a rank stream of n queries and returns the
// channel its items' indexes arrive on and the one its outcome arrives on.
func streamInBackground(c *Client, n int) (<-chan int, <-chan error) {
	got, done := make(chan int, n), make(chan error, 1)
	go func() {
		done <- c.RankDBsStream(make([]string, n), "cori", 0, "", func(i int, _ RankedBatch) error {
			got <- i
			return nil
		})
	}()
	return got, done
}

// wantItems receives exactly the items from..to, in order.
func wantItems(t *testing.T, got <-chan int, from, to int) {
	t.Helper()
	for want := from; want <= to; want++ {
		select {
		case i := <-got:
			if i != want {
				t.Fatalf("item %d delivered, want %d next", i, want)
			}
		case <-time.After(stall):
			t.Fatalf("item %d was not delivered (waiting for %d..%d)", want, from, to)
		}
	}
}

func TestStreamFlushSchedule(t *testing.T) {
	t.Run("promises", func(t *testing.T) {
		const n = 16
		sh := newGatedShard()
		c, conn := pipeServer(t, sh, Options{})
		got, done := streamInBackground(c, n)
		delivered, writes := 0, int64(0)
		for m := 1; m < n; m++ { // m items ranked, the last one not among them
			sh.rankNext(t)
			if m&(m+1) == 0 { // 1, 3, 7, 15: the group is written with the shard blocked before item m+1
				writes++
				wantItems(t, got, delivered, m-1)
				delivered = m
			}
			if w := conn.writes.Load(); w != writes {
				t.Fatalf("%d server writes after %d items, want %d", w, m, writes)
			}
			if delivered < (m+1)/2 {
				t.Fatalf("%d of %d ranked items delivered; item i is owed by the time item 2i-1 is ranked", delivered, m)
			}
			select {
			case i := <-got:
				t.Fatalf("item %d delivered ahead of its group (%d ranked)", i, m)
			default:
			}
		}
		sh.rankNext(t)
		wantItems(t, got, delivered, n-1)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if w := conn.writes.Load(); w != writes+1 {
			t.Errorf("%d server writes for %d items, want %d: the last item shares the eos frame's write", w, n, writes+1)
		}
	})

	for _, tc := range []struct{ n, writes int }{{1, 1}, {2, 2}, {15, 4}, {16, 5}, {1024, 11}} {
		t.Run(fmt.Sprintf("writes/%d", tc.n), func(t *testing.T) {
			c, conn := pipeServer(t, &fakeShard{ranked: []RankedDB{{Name: "db-a", Score: 0.9}, {Name: "db-b", Score: 0.4}}}, Options{})
			if items := collectRankStream(t, c, make([]string, tc.n), 0); len(items) != tc.n {
				t.Fatalf("%d items for %d queries", len(items), tc.n)
			}
			if w := conn.writes.Load(); w != int64(tc.writes) {
				t.Errorf("%d server writes for a stream of %d, want %d", w, tc.n, tc.writes)
			}
		})
	}

	// The byte cap: item 2 alone is past it, so it leaves at once instead of
	// waiting for item 3 to complete the group.
	t.Run("byte cap", func(t *testing.T) {
		sh := newGatedShard()
		sh.item = func(int) RankedBatch { return RankedBatch{Error: strings.Repeat("x", flushBytes+1)} }
		c, conn := pipeServer(t, sh, Options{})
		got, done := streamInBackground(c, 4)
		sh.rankNext(t)
		wantItems(t, got, 0, 0)
		sh.rankNext(t)
		wantItems(t, got, 1, 1)
		if w := conn.writes.Load(); w != 2 {
			t.Fatalf("%d server writes after two items past the cap, want 2", w)
		}
		sh.rankNext(t)
		sh.rankNext(t)
		wantItems(t, got, 2, 3)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if w := conn.writes.Load(); w != 4 {
			t.Errorf("%d server writes, want 4 (the count alone would have made it 3)", w)
		}
	})
}

// TestStreamHeldFramesReachTheClient: a whole-batch failure after items 4–6
// were ranked and held sends them ahead of the error frame — nothing lost,
// nothing twice — and the connection stays good.
func TestStreamHeldFramesReachTheClient(t *testing.T) {
	sh := newGatedShard()
	sh.failAt = 6
	c, conn := pipeServer(t, sh, Options{})
	got, done := streamInBackground(c, 16)
	for m := 1; m <= 6; m++ {
		sh.rankNext(t)
	}
	wantItems(t, got, 0, 2)
	if w := conn.writes.Load(); w != 2 {
		t.Fatalf("%d server writes with items 4-6 held, want 2", w)
	}
	sh.step <- struct{}{} // the shard fails instead of ranking item 7
	wantItems(t, got, 3, 5)
	err := <-done
	if err == nil || !strings.Contains(err.Error(), errShardBroke.Error()) {
		t.Fatalf("stream error = %v, want the shard's", err)
	}
	select {
	case i := <-got:
		t.Errorf("item %d delivered after the error frame", i)
	default:
	}
	if w := conn.writes.Load(); w != 3 {
		t.Errorf("%d server writes, want 3: the held items ride with the error frame", w)
	}
	if st := c.Stats(); st.Faults != 0 || st.Retries != 0 || c.isBroken() {
		t.Errorf("a server-reported failure cost the connection: %+v broken=%v", st, c.isBroken())
	}
}

// TestStreamCallerAbortWithFramesHeld: the consumer leaves in the middle of
// a group. It has seen every item up to the one it refused exactly once,
// the connection is discarded without a fault or a retry, and the next
// operation runs on a fresh one.
func TestStreamCallerAbortWithFramesHeld(t *testing.T) {
	sh := &fakeShard{ranked: []RankedDB{{Name: "db-a", Score: 0.9}}}
	srv, err := Serve(sh, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	reg := telemetry.NewRegistry()
	c, err := DialWith(srv.Addr(), Options{Metrics: reg, Retry: RetryPolicy{Attempts: 3}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	var seen []int
	err = c.RankDBsStream(make([]string, 16), "cori", 0, "", func(i int, _ RankedBatch) error {
		seen = append(seen, i)
		if i == 4 { // inside the group 3..6
			return fmt.Errorf("%w: consumer gone", ErrStreamCanceled)
		}
		return nil
	})
	if !errors.Is(err, ErrStreamCanceled) {
		t.Fatalf("aborted stream error = %v, want ErrStreamCanceled", err)
	}
	if fmt.Sprint(seen) != "[0 1 2 3 4]" {
		t.Errorf("items seen before the abort = %v, want each of 0..4 once", seen)
	}
	if st := c.Stats(); st.Faults != 0 || st.Retries != 0 {
		t.Errorf("caller abort counted against the network: %+v", st)
	}
	if got := reg.Counter("netsearch_conns_discarded_total").Value(); got != 1 {
		t.Errorf("conns discarded = %d, want 1", got)
	}
	if got, err := c.RankDBs("apple", "cori", 1, ""); err != nil || len(got) != 1 {
		t.Errorf("rank after the aborted stream = %+v, %v", got, err)
	}
}
