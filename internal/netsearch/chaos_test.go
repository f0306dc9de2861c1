package netsearch

// Chaos suite: drives the client's fault tolerance end to end through
// deterministic fault injection (internal/faulty) — injected transport
// faults, truncated frames, server restarts, unresponsive peers. Run with
// `make chaos`; everything here is seeded, so failures replay exactly.

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/faulty"
	"repro/internal/index"
	"repro/internal/randx"
)

// fastRetry is an aggressive test policy: generous attempts, millisecond
// backoff so a suite run stays quick.
func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{
		Attempts:  attempts,
		BaseDelay: time.Millisecond,
		MaxDelay:  8 * time.Millisecond,
		Seed:      2,
	}
}

// reServe rebinds a server to a previously used address, retrying briefly
// in case the OS has not released the port yet.
func reServe(t *testing.T, db core.Database, addr string) *Server {
	t.Helper()
	var lastErr error
	for i := 0; i < 100; i++ {
		srv, err := Serve(db, addr)
		if err == nil {
			return srv
		}
		lastErr = err
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("could not rebind %s: %v", addr, lastErr)
	return nil
}

func TestChaosBackoffDelaySequenceIsDeterministic(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 42}
	seq := func() []time.Duration {
		rng := randx.New(42)
		out := make([]time.Duration, 6)
		for i := range out {
			out[i] = p.Delay(i, rng)
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different delay at retry %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Envelope: delay i is the capped exponential scaled into [1/2, 1).
	for i, d := range a {
		base := 10 * time.Millisecond << uint(i)
		if base > 80*time.Millisecond {
			base = 80 * time.Millisecond
		}
		if d < base/2 || d >= base {
			t.Errorf("retry %d: delay %v outside [%v, %v)", i, d, base/2, base)
		}
	}
	// Distinct seeds give distinct jitter.
	other := p.Delay(0, randx.New(43))
	if other == a[0] {
		t.Errorf("seeds 42 and 43 produced identical jitter %v", a[0])
	}
}

func TestChaosBackoffGolden(t *testing.T) {
	// The exact schedule is part of the reproducibility contract: a retry
	// storm replays bit-identically from its seed on any platform.
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 42}
	rng := randx.New(42)
	want := []time.Duration{ // nanoseconds; regenerate by logging got
		8707824,  // retry 0: 10ms base, jitter into [5ms, 10ms)
		11599103, // retry 1: 20ms
		25572022, // retry 2: 40ms
		53767628, // retry 3: 80ms (capped)
		41521206, // retry 4: 80ms
		74729123, // retry 5: 80ms
	}
	got := make([]time.Duration, 6)
	for i := range got {
		got[i] = p.Delay(i, rng)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("retry %d: delay %v, want %v", i, got[i], want[i])
		}
	}
}

func TestChaosSamplingSurvivesInjectedWriteFaults(t *testing.T) {
	// The headline property: query-based sampling through a transport
	// that corrupts 20% of writes yields the exact same learned model as
	// sampling the database locally — retries are invisible to the
	// sampler, so determinism survives the faults.
	profile := corpus.Profile{
		Name: "chaos", Docs: 150, SharedVocabSize: 500, SharedProb: 0.5,
		Topics:   []corpus.TopicSpec{{Name: "t", VocabSize: 2000, Weight: 1}},
		DocLenMu: 3.8, DocLenSigma: 0.4, MinDocLen: 10,
		ZipfS: 1.35, ZipfV: 2, Seed: 4,
	}
	ix := index.Build(profile.MustGenerate(), analysis.Database(), index.InQuery)
	actual := ix.LanguageModel()

	srv, err := Serve(ix, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := DialWith(srv.Addr(), Options{
		Timeout:  2 * time.Second,
		Retry:    fastRetry(8),
		DialFunc: faulty.Dialer(faulty.ConnOptions{Seed: 11, WriteRate: 0.2}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	cfg := core.DefaultConfig(actual, 50, 77)
	local, err := core.Sample(ix, cfg)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := core.Sample(client, cfg)
	if err != nil {
		t.Fatalf("sampling through injected faults failed: %v", err)
	}
	if !local.Learned.Equal(remote.Learned) {
		t.Error("fault-injected sampling diverged from local sampling")
	}
	stats := client.Stats()
	if stats.Faults == 0 || stats.Redials == 0 {
		t.Errorf("fault injection did not bite: %+v (test is vacuous)", stats)
	}
}

func TestChaosServerRestartRedial(t *testing.T) {
	ix := index.Build([]corpus.Document{
		{ID: 0, Text: "apple pie recipe"},
		{ID: 1, Text: "apple tart"},
		{ID: 2, Text: "banana bread"},
	}, analysis.Raw(), index.InQuery)
	srv, err := Serve(ix, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	var dials, sleeps int // the client calls both hooks under its lock
	client, err := DialWith(addr, Options{
		Retry: fastRetry(3),
		DialFunc: func(addr string) (net.Conn, error) {
			dials++
			return net.Dial("tcp", addr)
		},
		SleepFunc: func(time.Duration) { sleeps++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	before, err := client.Search("apple", 10)
	if err != nil {
		t.Fatal(err)
	}

	srv.Close()
	if _, err := client.Search("apple", 10); err == nil {
		t.Fatal("search against a stopped server succeeded")
	}
	if !client.isBroken() {
		t.Error("client not marked broken after retries were exhausted")
	}
	// The peer is known to be down now: the next operation opens with no
	// live connection, dials once and does not back off.
	dials, sleeps = 0, 0
	if _, err := client.Search("apple", 10); err == nil {
		t.Fatal("search against a stopped server succeeded")
	}
	if dials != 1 || sleeps != 0 {
		t.Errorf("an operation against a peer known to be down made %d dials and %d backoff sleeps, want 1 and 0", dials, sleeps)
	}

	srv2 := reServe(t, ix, addr)
	defer srv2.Close()
	after, err := client.Search("apple", 10)
	if err != nil {
		t.Fatalf("search after server restart: %v", err)
	}
	if len(after) != len(before) {
		t.Errorf("post-restart search returned %v, want %v", after, before)
	}
	if client.isBroken() {
		t.Error("client still marked broken after successful redial")
	}
	if client.Stats().Redials == 0 {
		t.Error("no redial recorded")
	}
}

func TestChaosTruncatedFrameDoesNotDesync(t *testing.T) {
	// Regression for the protocol-desync bug: a half-written frame used
	// to leave the connection misaligned for every subsequent request.
	// Now any transport error marks the connection broken and the next
	// operation runs on a fresh one — and keeps answering correctly.
	ix := index.Build([]corpus.Document{
		{ID: 0, Text: "apple pie recipe"},
		{ID: 1, Text: "apple tart"},
		{ID: 2, Text: "banana bread"},
	}, analysis.Raw(), index.InQuery)
	srv, err := Serve(ix, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Only the first connection is cursed: its second write delivers half
	// a frame and drops. Redials get clean connections.
	var mu sync.Mutex
	conns := 0
	dial := func(addr string) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		conns++
		first := conns == 1
		mu.Unlock()
		if first {
			return faulty.WrapConn(conn, faulty.ConnOptions{FailWriteCall: 2}), nil
		}
		return conn, nil
	}

	// Attempts: 1 — no retry, so the injected fault surfaces and we can
	// observe the broken flag doing its job on the *next* call.
	client, err := DialWith(srv.Addr(), Options{Retry: RetryPolicy{Attempts: 1}, DialFunc: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	want, err := client.Search("apple", 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Search("banana", 10); !errors.Is(err, faulty.ErrInjected) {
		t.Fatalf("truncated write surfaced as %v, want ErrInjected", err)
	}
	if !client.isBroken() {
		t.Fatal("half-written frame did not mark the connection broken")
	}
	got, err := client.Search("apple", 10)
	if err != nil {
		t.Fatalf("search after truncated frame: %v", err)
	}
	if len(got) != len(want) || (len(got) > 0 && got[0] != want[0]) {
		t.Errorf("desync: post-fault search returned %v, want %v", got, want)
	}
}

func TestChaosDeadlineOnUnresponsivePeer(t *testing.T) {
	// A peer that accepts but never answers used to hang the client
	// forever; with a per-operation deadline it fails within bounds.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn) // swallow requests, never reply
		}
	}()

	client, err := DialWith(ln.Addr().String(), Options{
		Timeout: 25 * time.Millisecond,
		Retry:   RetryPolicy{Attempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	_, err = client.Search("apple", 1)
	if err == nil {
		t.Fatal("search against an unresponsive peer succeeded")
	}
	if !strings.Contains(err.Error(), "attempts") {
		t.Errorf("error does not report retry exhaustion: %v", err)
	}
}

func TestChaosRemoteErrorsAreNotRetried(t *testing.T) {
	// Server-reported errors leave the transport healthy: no retry, no
	// backoff sleep, no broken flag.
	ix := index.Build([]corpus.Document{{ID: 0, Text: "alpha"}}, analysis.Raw(), index.InQuery)
	srv, err := Serve(ix, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	sleeps := 0
	client, err := DialWith(srv.Addr(), Options{
		Retry:     fastRetry(5),
		SleepFunc: func(time.Duration) { sleeps++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, err := client.Fetch(99); err == nil {
		t.Fatal("out-of-range fetch succeeded")
	}
	if sleeps != 0 {
		t.Errorf("application error triggered %d backoff sleeps", sleeps)
	}
	if client.isBroken() {
		t.Error("application error marked the connection broken")
	}
	if _, err := client.Search("alpha", 1); err != nil {
		t.Errorf("connection unusable after application error: %v", err)
	}
}

func TestChaosClosedClientStaysClosed(t *testing.T) {
	ix := index.Build([]corpus.Document{{ID: 0, Text: "alpha"}}, analysis.Raw(), index.InQuery)
	srv, err := Serve(ix, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := DialWith(srv.Addr(), Options{Retry: fastRetry(5)})
	if err != nil {
		t.Fatal(err)
	}
	client.Close()
	if _, err := client.Search("alpha", 1); err == nil {
		t.Error("closed client served a request (it must not redial)")
	}
	if client.Stats().Redials != 0 {
		t.Error("closed client redialed")
	}
}
