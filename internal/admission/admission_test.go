package admission

import (
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestNilGateAdmitsEverything(t *testing.T) {
	var g *Gate
	tk, ok := g.Admit()
	if !ok || tk != nil {
		t.Fatalf("nil gate Admit = (%v, %v), want (nil, true)", tk, ok)
	}
	if k := tk.ClampK(100); k != 100 {
		t.Errorf("nil ticket ClampK(100) = %d, want passthrough", k)
	}
	if tk.Degraded() {
		t.Error("nil ticket reports degraded")
	}
	tk.Release() // must not panic
	if g.RetryAfterSeconds() != 1 {
		t.Errorf("nil gate RetryAfterSeconds = %d, want 1", g.RetryAfterSeconds())
	}
	if g.InFlight() != 0 {
		t.Errorf("nil gate InFlight = %d, want 0", g.InFlight())
	}
}

func TestNewDisabledConfigIsNil(t *testing.T) {
	if g := New(Config{}, telemetry.NewRegistry(), "service"); g != nil {
		t.Fatal("zero config must build the nil (disabled) gate")
	}
	if (Config{}).Enabled() {
		t.Error("zero config reports enabled")
	}
}

func TestMaxInFlightSheds(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := New(Config{MaxInFlight: 2}, reg, "service")

	t1, ok1 := g.Admit()
	t2, ok2 := g.Admit()
	if !ok1 || !ok2 {
		t.Fatal("requests under the cap were shed")
	}
	if _, ok := g.Admit(); ok {
		t.Fatal("request over the cap was admitted")
	}
	snap := reg.Snapshot()
	if got := snap.Counters[`service_shed_total{reason="inflight"}`]; got != 1 {
		t.Errorf("inflight shed counter = %d, want 1", got)
	}
	if got := g.InFlight(); got != 2 {
		t.Errorf("InFlight after shed = %d, want 2 (shed arrival must not be counted)", got)
	}

	t1.Release()
	if _, ok := g.Admit(); !ok {
		t.Fatal("request after a release was shed")
	}
	t2.Release()
	// The shed counter must not have moved for admitted requests.
	if got := reg.Snapshot().Counters[`service_shed_total{reason="inflight"}`]; got != 1 {
		t.Errorf("inflight shed counter after admits = %d, want still 1", got)
	}
}

func TestDegradationClampsK(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := New(Config{MaxInFlight: 8, DegradeAt: 2, DegradeK: 5}, reg, "service")

	t1, _ := g.Admit() // depth 1: full fidelity
	if t1.Degraded() || t1.ClampK(100) != 100 || t1.ClampK(0) != 0 {
		t.Fatalf("depth-1 request degraded: ClampK(100)=%d ClampK(0)=%d", t1.ClampK(100), t1.ClampK(0))
	}
	t2, _ := g.Admit() // depth 2: at DegradeAt
	if !t2.Degraded() {
		t.Fatal("depth-2 request not degraded with DegradeAt=2")
	}
	if k := t2.ClampK(100); k != 5 {
		t.Errorf("degraded ClampK(100) = %d, want 5", k)
	}
	if k := t2.ClampK(0); k != 5 {
		t.Errorf("degraded ClampK(0) = %d, want 5 (ask-for-all is clamped)", k)
	}
	if k := t2.ClampK(3); k != 3 {
		t.Errorf("degraded ClampK(3) = %d, want 3 (already under the clamp)", k)
	}
	if got := reg.Snapshot().Counters["service_degraded_total"]; got != 1 {
		t.Errorf("degraded counter = %d, want 1", got)
	}
	t1.Release()
	t2.Release()
}

func TestLatencyShedding(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := New(Config{MaxP99: 10 * time.Millisecond, Window: 64}, reg, "service")
	clk := telemetry.NewManualClock(time.Unix(1000, 0))
	g.SetClock(clk.Now)

	// Feed the window with slow requests: admit, advance the clock past
	// the bound, release.
	for i := 0; i < 64; i++ {
		tk, ok := g.Admit()
		if !ok {
			t.Fatalf("request %d shed while the window was still fast", i)
		}
		clk.Advance(50 * time.Millisecond)
		tk.Release()
	}

	// Idle server: p99 is poisoned, but with nothing in flight the gate
	// must still admit (otherwise it could never observe recovery).
	tIdle, ok := g.Admit()
	if !ok {
		t.Fatal("idle-server request shed on a stale window")
	}
	// With one request in flight, a second arrival sees the bad p99.
	if _, ok := g.Admit(); ok {
		t.Fatal("arrival admitted despite p99 over the bound and a request in flight")
	}
	if got := reg.Snapshot().Counters[`service_shed_total{reason="p99"}`]; got != 1 {
		t.Errorf("p99 shed counter = %d, want 1", got)
	}
	clk.Advance(time.Millisecond)
	tIdle.Release()

	// Recovery: a stream of fast completions pushes the bad samples out
	// of the window, and concurrent arrivals are admitted again.
	for i := 0; i < 128; i++ {
		tk, ok := g.Admit()
		if !ok {
			t.Fatalf("recovery request %d shed", i)
		}
		clk.Advance(time.Millisecond)
		tk.Release()
	}
	hold, _ := g.Admit()
	if _, ok := g.Admit(); !ok {
		t.Fatal("arrival shed after the window recovered")
	}
	hold.Release()
}

func TestRetryAfterSeconds(t *testing.T) {
	reg := telemetry.NewRegistry()
	if got := New(Config{MaxInFlight: 1}, reg, "s").RetryAfterSeconds(); got != 1 {
		t.Errorf("default RetryAfterSeconds = %d, want 1", got)
	}
	if got := New(Config{MaxInFlight: 1, RetryAfter: 2500 * time.Millisecond}, reg, "s").RetryAfterSeconds(); got != 3 {
		t.Errorf("RetryAfterSeconds(2.5s) = %d, want 3 (rounded up)", got)
	}
}

func TestGaugeTracksInFlight(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := New(Config{MaxInFlight: 4}, reg, "service")
	t1, _ := g.Admit()
	t2, _ := g.Admit()
	if got := reg.Snapshot().Gauges["service_rank_inflight"]; got != 2 {
		t.Errorf("inflight gauge = %d, want 2", got)
	}
	t1.Release()
	t2.Release()
	if got := reg.Snapshot().Gauges["service_rank_inflight"]; got != 0 {
		t.Errorf("inflight gauge after releases = %d, want 0", got)
	}
}

// TestGaugeReturnsToZero admits and releases 64 tickets from each of 8
// goroutines, with a cap nothing reaches, and reads the gauge at 0
// afterwards: it moves by +1 and -1, which commute. (Set to the counter's
// value after each update, two releases could publish out of order and
// leave an idle gate reading 1.)
func TestGaugeReturnsToZero(t *testing.T) {
	reg := telemetry.NewRegistry()
	const workers, each = 8, 64
	g := New(Config{MaxInFlight: workers * each}, reg, "service")
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tk, ok := g.Admit()
				if !ok {
					t.Error("arrival shed under a cap nothing reaches")
					return
				}
				tk.Release()
			}
		}()
	}
	wg.Wait()
	if got := g.InFlight(); got != 0 {
		t.Errorf("InFlight() = %d after every release, want 0", got)
	}
	if got := reg.Snapshot().Gauges["service_rank_inflight"]; got != 0 {
		t.Errorf("service_rank_inflight = %d after every release, want 0", got)
	}
}
