// Locks passed by value: go vet's copylocks check reports lines 12, 19, 26.
package locks

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

// ByValue copies the mutex with the struct.
func ByValue(g guarded) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// Get's value receiver copies the mutex on every call.
func (g guarded) Get() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// WaitAll copies a WaitGroup; Wait observes the copy's counter.
func WaitAll(wg sync.WaitGroup) {
	wg.Wait()
}
