package service

// A seeded registry history: goroutines that register, sample, extend and
// unregister the same few names at once, then the state check that must
// hold once they are done and again after a restart. The operation lists
// come from a seed, so a failure names them; the interleaving is the
// scheduler's.

import (
	"errors"
	"maps"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/randx"
	"repro/internal/store"
)

type histKind int

const (
	opRegister histKind = iota
	opSample
	opExtend
	opUnregister
)

// histOp is one step of a history: an operation on one name, with the
// sampling seed a sample or extend runs with.
type histOp struct {
	kind histKind
	name string
	seed uint64
}

// genHistory draws n operations over names from seed.
func genHistory(seed uint64, names []string, n int) []histOp {
	src := randx.New(seed)
	ops := make([]histOp, n)
	for i := range ops {
		ops[i] = histOp{
			kind: histKind(src.Intn(4)),
			name: names[src.Intn(len(names))],
			seed: 1 + uint64(src.Intn(1000)),
		}
	}
	return ops
}

// apply runs op against svc, registering the name over dbs[name]. The
// refusals a concurrent history makes legitimate are not errors: the name
// was registered or unregistered by another goroutine first, or an extend
// finds no run in this process to continue.
func (op histOp) apply(svc *Service, dbs map[string]core.Database) error {
	var err error
	switch op.kind {
	case opRegister:
		err = svc.RegisterLocal(op.name, dbs[op.name])
	case opSample, opExtend:
		_, err = svc.Sample(op.name, SampleOptions{Docs: 20, Seed: op.seed, Extend: op.kind == opExtend})
	case opUnregister:
		err = svc.Unregister(op.name)
	}
	if errors.Is(err, ErrExists) || errors.Is(err, ErrUnknownDatabase) || errors.Is(err, ErrInvalid) {
		return nil
	}
	return err
}

// servedFingerprints is the read path's view of svc: the fingerprint of
// every model the current snapshot serves, by name.
func servedFingerprints(svc *Service) map[string]uint64 {
	snap := svc.snapshot()
	out := make(map[string]uint64, len(snap.names))
	for i, name := range snap.names {
		out[name] = snap.models[i].Fingerprint()
	}
	return out
}

// checkHistory checks svc, quiescent after a history over names, against
// its store st in dir: every registered entry's model, the model the read
// path serves under its name and the stored model are one model (or all
// absent); an unregistered name has no stored model; and a service
// restarted over the store with the same registrations serves the same
// names and fingerprints.
func checkHistory(t *testing.T, seed uint64, svc *Service, st *store.Store, dir string, names []string, dbs map[string]core.Database) {
	t.Helper()
	served := servedFingerprints(svc)
	entries := make(map[string]uint64)
	svc.mu.RLock()
	for name, e := range svc.entries {
		entries[name] = 0
		if e.model != nil {
			entries[name] = e.model.Fingerprint()
		}
	}
	svc.mu.RUnlock()
	for _, name := range names {
		var stored uint64
		m, err := st.Get(name)
		switch {
		case err == nil:
			stored = m.Fingerprint()
		case !errors.Is(err, store.ErrNotFound):
			t.Fatalf("seed %d: reading %s: %v", seed, name, err)
		}
		entry, registered := entries[name]
		switch {
		case !registered && (stored != 0 || served[name] != 0):
			t.Errorf("seed %d: unregistered %s: stored %x, served %x", seed, name, stored, served[name])
		case registered && (served[name] != entry || stored != entry):
			t.Errorf("seed %d: %s: entry %x, served %x, stored %x", seed, name, entry, served[name], stored)
		}
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	restarted := New(analysis.Database(), st2)
	for name := range entries {
		if err := restarted.RegisterLocal(name, dbs[name]); err != nil {
			t.Fatal(err)
		}
	}
	if got := servedFingerprints(restarted); !maps.Equal(got, served) {
		t.Errorf("seed %d: restarted service serves %v, the live one served %v", seed, got, served)
	}
}

// TestChaosRegistryHistory runs, per seed, three goroutines of register /
// sample / extend / unregister over two names against one service with a
// store, then checks the state and a restart (checkHistory). Under -race
// it is also the proof that the write path's commit, Unregister's store
// delete and the read path's snapshot share no unguarded state.
func TestChaosRegistryHistory(t *testing.T) {
	fed, err := experiments.Federation(2, 100, 17)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{fed[0].Name, fed[1].Name}
	dbs := map[string]core.Database{fed[0].Name: fed[0].Index, fed[1].Name: fed[1].Index}
	for _, seed := range []uint64{1, 2, 3, 4, 5, 6, 7, 8} {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		svc := New(analysis.Database(), st)
		var wg sync.WaitGroup
		for g := uint64(0); g < 3; g++ {
			ops := genHistory(seed<<8|g, names, 12)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, op := range ops {
					if err := op.apply(svc, dbs); err != nil {
						t.Errorf("seed %d goroutine %d: %+v: %v", seed, g, op, err)
					}
				}
			}()
		}
		wg.Wait()
		checkHistory(t, seed, svc, st, dir, names, dbs)
	}
}
