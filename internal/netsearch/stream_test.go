package netsearch

// Tests for the "rankstream" wire op (DESIGN.md §10): streamed items over
// real TCP, in-order delivery with per-item errors, whole-stream refusals,
// caller aborts that discard the connection without fault accounting or
// retries, and the connection surviving for the next operation.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func collectRankStream(t *testing.T, c *Client, queries []string, k int) []RankedBatch {
	t.Helper()
	var items []RankedBatch
	err := c.RankDBsStream(queries, "cori", k, "", func(i int, item RankedBatch) error {
		if i != len(items) {
			return fmt.Errorf("item %d arrived out of order (want %d)", i, len(items))
		}
		items = append(items, item)
		return nil
	})
	if err != nil {
		t.Fatalf("RankDBsStream: %v", err)
	}
	return items
}

// TestRankStreamOverTCP: a streaming shard (with a per-item error) must
// deliver every item, in order, and leave the connection usable.
func TestRankStreamOverTCP(t *testing.T) {
	ranked := []RankedDB{{Name: "db-a", Score: 0.9}, {Name: "db-b", Score: 0.4}}
	t.Run("stream", func(t *testing.T) {
		c := startShardServer(t, &fakeShard{ranked: ranked, perItemErr: map[int]string{1: "no index terms"}})
		queries := []string{"apple", "the and of", "plum"}
		items := collectRankStream(t, c, queries, 2)
		if len(items) != len(queries) {
			t.Fatalf("got %d items for %d queries", len(items), len(queries))
		}
		for i, it := range items {
			if i == 1 {
				if it.Error != "no index terms" || it.Ranked != nil {
					t.Errorf("item 1 = %+v, want the shard's streamed error", it)
				}
				continue
			}
			if it.Error != "" || !reflect.DeepEqual(it.Ranked, ranked) {
				t.Errorf("item %d = %+v, want %+v", i, it, ranked)
			}
		}
		// The connection survives the stream: the next op reuses it.
		if _, err := c.RankDBs("apple", "cori", 2, ""); err != nil {
			t.Fatalf("rank after stream: %v", err)
		}
	})
}

// TestRankStreamServerError: a whole-batch refusal (the shard's ranker
// errors before any item) surfaces as a remote error, not a dropped
// connection.
func TestRankStreamServerError(t *testing.T) {
	c := startShardServer(t, &fakeShard{rankErr: errors.New("invalid argument: bogus alg")})
	err := c.RankDBsStream([]string{"q"}, "bogus", 5, "", func(int, RankedBatch) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "invalid argument") {
		t.Errorf("stream error = %v, want the server-reported message", err)
	}
}

// TestRankStreamCallerAbort: an emit error mid-stream surfaces as-is,
// costs no fault or retry (the caller chose to leave), discards the
// now-desynchronized connection, and the client redials for the next op.
func TestRankStreamCallerAbort(t *testing.T) {
	sh := &fakeShard{ranked: []RankedDB{{Name: "db-a", Score: 0.9}}}
	srv, err := Serve(sh, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	reg := telemetry.NewRegistry()
	c, err := DialWith(srv.Addr(), Options{
		Metrics: reg,
		Retry:   RetryPolicy{Attempts: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	abort := fmt.Errorf("%w: consumer gone", ErrStreamCanceled)
	emits := 0
	err = c.RankDBsStream([]string{"a", "b", "c"}, "cori", 2, "", func(int, RankedBatch) error {
		emits++
		return abort
	})
	if !errors.Is(err, ErrStreamCanceled) {
		t.Fatalf("aborted stream error = %v, want ErrStreamCanceled", err)
	}
	if emits != 1 {
		t.Fatalf("emit ran %d times after aborting, want 1 (no retry replay)", emits)
	}
	if got := c.Stats().Faults; got != 0 {
		t.Errorf("caller abort counted %d transport faults, want 0", got)
	}
	if got := reg.Counter("netsearch_conns_discarded_total").Value(); got != 1 {
		t.Errorf("conns discarded = %d, want 1 (the desynced stream connection)", got)
	}
	// The abandoned connection was discarded; the next op redials cleanly.
	got, err := c.RankDBs("apple", "cori", 1, "")
	if err != nil {
		t.Fatalf("rank after aborted stream: %v", err)
	}
	if len(got) != 1 || got[0].Name != "db-a" {
		t.Errorf("post-abort rank = %+v", got)
	}
}
