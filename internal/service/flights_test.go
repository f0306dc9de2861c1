package service

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// TestFlightsGaugeReturnsToZero retires 64 flights from 8 goroutines and
// reads service_rank_flights_inflight at 0 afterwards: the gauge moves by
// +1 and -1, which commute. (Set to a map length read under the lock but
// published outside it, two retirements could land out of order and leave
// an idle service reading 1.)
func TestFlightsGaugeReturnsToZero(t *testing.T) {
	// The service owns the one flight map, so its gauge is the one to check.
	t.Run("service", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		fl := newFlights(func() *telemetry.Registry { return reg })
		const workers, each = 8, 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					key := flightKey{Query: fmt.Sprintf("q%d-%d", w, i)}
					f, leader := fl.join(key)
					if !leader {
						t.Errorf("flight %v already led", key)
						return
					}
					fl.fulfill(key, f, nil, nil)
				}
			}(w)
		}
		wg.Wait()
		if got := fl.inflight(); got != 0 {
			t.Errorf("inflight() = %d after every flight retired, want 0", got)
		}
		if got := reg.Gauge(flightsInflight).Value(); got != 0 {
			t.Errorf("%s = %d after every flight retired, want 0", flightsInflight, got)
		}
	})
}

// TestFlightsJoinFollowerZeroAlloc: joining a rank already in flight — the
// path every coalesced request takes — allocates nothing.
func TestFlightsJoinFollowerZeroAlloc(t *testing.T) {
	reg := telemetry.NewRegistry()
	fl := newFlights(func() *telemetry.Registry { return reg })
	key := flightKey{Query: "stock market", Alg: "cori", K: 10, Epoch: 3}
	leader, led := fl.join(key)
	if !led {
		t.Fatal("first join did not lead")
	}
	defer fl.fulfill(key, leader, nil, nil)
	if n := testing.AllocsPerRun(100, func() {
		if f, led := fl.join(key); led || f != leader {
			t.Fatal("join of a key in flight did not follow its leader")
		}
	}); n != 0 {
		t.Errorf("join of a key in flight: %v allocs a call, want 0", n)
	}
}
