package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapKeepsInputOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 7, 100, 0} {
		out, err := Map(workers, items, func(i, v int) (int, error) {
			return v * v, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(4, nil, func(i int, v string) (string, error) { return v, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("got %v, %v", out, err)
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	wantErr := errors.New("boom-2")
	_, err := Map(4, items, func(i, v int) (int, error) {
		if i == 5 {
			return 0, errors.New("boom-5")
		}
		if i == 2 {
			return 0, wantErr
		}
		return v, nil
	})
	if err == nil || err.Error() != "boom-2" {
		t.Fatalf("want lowest-index error boom-2, got %v", err)
	}
}

func TestMapRespectsCap(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	block := make(chan struct{})
	var once sync.Once
	_, err := Map(workers, make([]int, 24), func(i, _ int) (int, error) {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		// Rendezvous: the first worker waits until someone else has run,
		// guaranteeing the test actually observes concurrency when the
		// cap allows it.
		once.Do(func() {
			go func() { block <- struct{}{} }()
		})
		if i == 0 {
			<-block
		}
		runtime.Gosched()
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds cap %d", p, workers)
	}
}

func TestMapSequentialFastPathRunsInline(t *testing.T) {
	// workers=1 must not spawn goroutines: fn observes strictly increasing i.
	last := -1
	_, err := Map(1, make([]int, 10), func(i, _ int) (int, error) {
		if i != last+1 {
			t.Fatalf("out-of-order inline call: %d after %d", i, last)
		}
		last = i
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForN(t *testing.T) {
	var sum atomic.Int64
	if err := ForN(4, 10, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 45 {
		t.Fatalf("sum = %d", sum.Load())
	}
	wantErr := fmt.Errorf("fail-3")
	err := ForN(2, 8, func(i int) error {
		if i >= 3 {
			return fmt.Errorf("fail-%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("want %v, got %v", wantErr, err)
	}
}

func TestGroup(t *testing.T) {
	g := NewGroup(2)
	var sum atomic.Int64
	for i := 0; i < 10; i++ {
		i := i
		g.Go(func() error {
			sum.Add(int64(i))
			if i == 4 {
				return errors.New("late")
			}
			if i == 1 {
				return errors.New("early")
			}
			return nil
		})
	}
	err := g.Wait()
	if sum.Load() != 45 {
		t.Fatalf("sum = %d", sum.Load())
	}
	if err == nil || err.Error() != "early" {
		t.Fatalf("want first submitted error, got %v", err)
	}
}

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("explicit value not honored")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-1) != runtime.GOMAXPROCS(0) {
		t.Error("default not GOMAXPROCS")
	}
}
