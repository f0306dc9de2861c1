package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestReadPathTakesNoRegistryLock: with another goroutine holding the
// registry lock for writing, as a registration or a commit does, a warm
// Rank, a warm RankBatch and a GET /rank through Handler() each return.
func TestReadPathTakesNoRegistryLock(t *testing.T) {
	svc, _ := sampledFixture(t)
	h := svc.Handler()
	calls := []struct {
		name string
		call func() error
	}{
		{"Rank", func() error {
			_, err := svc.Rank("system data", "cori", 2)
			return err
		}},
		{"RankBatch", func() error {
			_, err := svc.RankBatch([]string{"system data", "market"}, "cori", 2)
			return err
		}},
		{"GET /rank", func() error {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/rank?q=system+data&alg=cori&k=2", nil))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("status %d: %s", rec.Code, rec.Body)
			}
			return nil
		}},
	}
	for _, c := range calls {
		if err := c.call(); err != nil {
			t.Fatalf("warm-up %s: %v", c.name, err)
		}
	}

	locked, unlock := make(chan struct{}), make(chan struct{})
	go func() {
		svc.mu.Lock()
		close(locked)
		<-unlock
		svc.mu.Unlock()
	}()
	<-locked
	defer close(unlock)
	for _, c := range calls {
		done := make(chan error, 1)
		go func() { done <- c.call() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
			}
		case <-time.After(2 * time.Second):
			t.Errorf("%s had not returned 2 s into the registry lock's hold", c.name)
		}
	}
}
