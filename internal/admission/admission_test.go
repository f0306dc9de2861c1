package admission

import (
	"sync"
	"testing"

	"repro/internal/telemetry"
)

func TestNilGateAdmitsEverything(t *testing.T) {
	var g *Gate
	tk, ok := g.Admit()
	if !ok || tk != (Ticket{}) {
		t.Fatalf("nil gate Admit = (%v, %v), want (zero ticket, true)", tk, ok)
	}
	tk.Release() // must not panic
	if g.InFlight() != 0 {
		t.Errorf("nil gate InFlight = %d, want 0", g.InFlight())
	}
}

func TestNewDisabledConfigIsNil(t *testing.T) {
	if g := New(Config{}, telemetry.NewRegistry(), "service"); g != nil {
		t.Fatal("zero config must build the nil (disabled) gate")
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

// TestAdmitDoesNotAllocate holds the admitted path of an enabled gate to
// no allocation: the ticket is a value, not a heap object per request.
func TestAdmitDoesNotAllocate(t *testing.T) {
	g := New(Config{MaxInFlight: 4}, telemetry.NewRegistry(), "service")
	allocs := testing.AllocsPerRun(1000, func() {
		tk, ok := g.Admit()
		if !ok {
			t.Fatal("arrival shed under the cap")
		}
		tk.Release()
	})
	if allocs != 0 {
		t.Errorf("Admit+Release allocates %v times, want 0", allocs)
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
