package faulty

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/corpus"
)

// okDB is a trivially healthy database.
type okDB struct{}

func (okDB) Search(string, int) ([]int, error) { return []int{1, 2}, nil }
func (okDB) Fetch(id int) (corpus.Document, error) {
	return corpus.Document{ID: id, Text: "alpha"}, nil
}
func (okDB) TotalHits(string) (int, error) { return 2, nil }

// failPattern records which of n calls fail.
func failPattern(t *testing.T, seed uint64, rate float64, n int) []bool {
	t.Helper()
	db := WrapDB(okDB{}, seed, rate)
	out := make([]bool, n)
	for i := range out {
		_, err := db.Search("q", 1)
		out[i] = err != nil
	}
	return out
}

func TestDBDeterministicInjection(t *testing.T) {
	a := failPattern(t, 7, 0.3, 200)
	b := failPattern(t, 7, 0.3, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	fails := 0
	for _, f := range a {
		if f {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Errorf("rate 0.3 injected %d/%d failures", fails, len(a))
	}
}

func TestDBRateZeroAndOne(t *testing.T) {
	healthy := WrapDB(okDB{}, 1, 0)
	if _, err := healthy.Search("q", 1); err != nil {
		t.Errorf("rate 0 failed: %v", err)
	}
	broken := WrapDB(okDB{}, 1, 1)
	if _, err := broken.Fetch(1); !errors.Is(err, ErrInjected) {
		t.Errorf("rate 1 returned %v, want ErrInjected", err)
	}
	if broken.Injected() != 1 || broken.Calls() != 1 {
		t.Errorf("counters: calls=%d injected=%d", broken.Calls(), broken.Injected())
	}
	// Heal and retry.
	broken.SetRate(0)
	if _, err := broken.Fetch(1); err != nil {
		t.Errorf("healed database failed: %v", err)
	}
}

func TestDBHookSeesEveryCall(t *testing.T) {
	db := WrapDB(okDB{}, 1, 0)
	var ops []string
	db.SetHook(func(op string, call int) { ops = append(ops, op) })
	db.Search("q", 1)
	db.Fetch(1)
	db.TotalHits("q")
	if len(ops) != 3 || ops[0] != "search" || ops[1] != "fetch" || ops[2] != "count" {
		t.Errorf("hook saw %v", ops)
	}
}

// plainDB implements core.Database without hit counting.
type plainDB struct{}

func (plainDB) Search(string, int) ([]int, error)  { return nil, nil }
func (plainDB) Fetch(int) (corpus.Document, error) { return corpus.Document{}, nil }

func TestDBTotalHitsUnsupported(t *testing.T) {
	db := WrapDB(plainDB{}, 1, 0)
	if _, err := db.TotalHits("q"); err == nil {
		t.Error("TotalHits on a non-counting database should fail")
	}
}

func TestConnScriptedTruncation(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	fc := WrapConn(a, ConnOptions{FailWriteCall: 1})

	got := make(chan []byte, 1)
	errc := make(chan error, 1)
	go func() {
		buf, err := io.ReadAll(b)
		got <- buf
		errc <- err
	}()

	// A netsearch search frame: u32 LE payload length, kind 0x01, then
	// n = 4, the query "apple" and the trace "".
	frame := []byte("\x08\x00\x00\x00\x01\x04\x05apple\x00")
	n, err := fc.Write(frame)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("scripted write fault returned %v", err)
	}
	if n != len(frame)/2 {
		t.Errorf("truncated write reported %d bytes, want %d", n, len(frame)/2)
	}
	if buf := <-got; len(buf) != len(frame)/2 {
		t.Errorf("peer received %d bytes, want the truncated %d", len(buf), len(frame)/2)
	}
	if err := <-errc; err != nil {
		t.Errorf("peer read after close: %v", err)
	}
	// The connection is dead for good.
	if _, err := fc.Write([]byte("more")); err == nil {
		t.Error("write after injected fault succeeded")
	}
}

func TestConnReadFaultClosesConn(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	fc := WrapConn(a, ConnOptions{ReadRate: 1})
	if _, err := fc.Read(make([]byte, 8)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read fault returned %v", err)
	}
	if _, err := fc.Read(make([]byte, 8)); err == nil {
		t.Error("read after injected fault succeeded")
	}
}

func TestConnLatencyIsDeterministic(t *testing.T) {
	delays := func(seed uint64) []time.Duration {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		var out []time.Duration
		fc := WrapConn(a, ConnOptions{
			Seed:       seed,
			MaxLatency: time.Second,
			Sleep:      func(d time.Duration) { out = append(out, d) },
		})
		go io.Copy(io.Discard, b)
		for i := 0; i < 10; i++ {
			if _, err := fc.Write([]byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	a, b := delays(5), delays(5)
	if len(a) != 10 {
		t.Fatalf("expected 10 injected delays, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed gave different delay at write %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= time.Second {
			t.Errorf("delay %v outside [0, MaxLatency)", a[i])
		}
	}
}
