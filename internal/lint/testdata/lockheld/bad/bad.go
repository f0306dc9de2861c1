// Lock-discipline violations: a lock leaked on one path, blocking
// operations (I/O, channels, transitively-blocking module calls) while
// a mutex is held.
package locks

import (
	"os"
	"sync"
	"time"
)

type S struct {
	mu sync.Mutex
	f  *os.File
	ch chan int
	n  int
}

// LeakOnBranch releases on the early-return path only.
func (s *S) LeakOnBranch(cond bool) int {
	s.mu.Lock() // want `s.mu is acquired here but not released on every path to return`
	if cond {
		s.mu.Unlock()
		return 0
	}
	return s.n
}

// WriteHeld performs file I/O under the lock.
func (s *S) WriteHeld(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.f.Write(p) // want `call to Write \(may block\) while holding s.mu`
}

// SendHeld performs a channel send under the lock.
func (s *S) SendHeld(v int) {
	s.mu.Lock()
	s.ch <- v // want `channel send while holding s.mu`
	s.mu.Unlock()
}

// SleepHeld blocks transitively: helper sleeps, and the call graph
// knows it.
func (s *S) SleepHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	helper() // want `call to helper \(may block\) while holding s.mu`
}

func helper() { time.Sleep(time.Millisecond) }

// Dialer returns a closure that sleeps under the lock it takes: the
// closure is a function of its own, checked wherever it is written.
func Dialer() func() int {
	var mu sync.Mutex
	n := 0
	return func() int {
		mu.Lock()
		defer mu.Unlock()
		n++
		time.Sleep(time.Millisecond) // want `call to Sleep \(may block\) while holding mu`
		return n
	}
}
