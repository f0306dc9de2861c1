package serving_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/serving"
	"repro/internal/telemetry"
)

// TestFlightsGaugeReturnsToZero retires 64 flights from 8 goroutines and
// reads <prefix>_rank_flights_inflight at 0 afterwards: the gauge moves by
// +1 and -1, which commute. (Set to a map length read under the lock but
// published outside it, two retirements could land out of order and leave
// an idle tier reading 1.)
func TestFlightsGaugeReturnsToZero(t *testing.T) {
	for _, prefix := range []string{"service", "cluster"} {
		t.Run(prefix, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			fl := serving.NewFlights(prefix, func() *telemetry.Registry { return reg })
			const workers, each = 8, 8
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						key := serving.Key{Query: fmt.Sprintf("q%d-%d", w, i)}
						f, leader := fl.Join(key)
						if !leader {
							t.Errorf("flight %v already led", key)
							return
						}
						fl.Fulfill(key, f, nil, nil)
					}
				}(w)
			}
			wg.Wait()
			if got := fl.Inflight(); got != 0 {
				t.Errorf("Inflight() = %d after every flight retired, want 0", got)
			}
			if got := reg.Gauge(prefix + "_rank_flights_inflight").Value(); got != 0 {
				t.Errorf("%s_rank_flights_inflight = %d after every flight retired, want 0", prefix, got)
			}
		})
	}
}

// TestFlightsJoinFollowerZeroAlloc: joining a rank already in flight — the
// peek path every coalesced request takes — allocates nothing.
func TestFlightsJoinFollowerZeroAlloc(t *testing.T) {
	reg := telemetry.NewRegistry()
	fl := serving.NewFlights("service", func() *telemetry.Registry { return reg })
	key := serving.Key{Query: "stock market", Alg: "cori", K: 10, Epoch: 3}
	leader, led := fl.Join(key)
	if !led {
		t.Fatal("first Join did not lead")
	}
	defer fl.Fulfill(key, leader, nil, nil)
	if n := testing.AllocsPerRun(100, func() {
		if f, led := fl.Join(key); led || f != leader {
			t.Fatal("Join of a key in flight did not follow its leader")
		}
	}); n != 0 {
		t.Errorf("Join of a key in flight: %v allocs a call, want 0", n)
	}
}
