package bench

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

func testVocab(n int) []string {
	vocab := make([]string, n)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%04d", i)
	}
	return vocab
}

func mustStream(t *testing.T, w Workload, seed uint64) *Stream {
	t.Helper()
	s, err := NewStream(w, seed, testVocab(4000))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The stream is a function of (workload, seed): two streams agree query
// for query, and connections drawing concurrently are handed exactly the
// queries a single connection would have been, whatever their number.
func TestStreamSameSeedSameQueries(t *testing.T) {
	for _, w := range Workloads {
		const n = 20000
		want := mustStream(t, w, 7).NextN(n)
		if got := mustStream(t, w, 7).NextN(n); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: two streams of one seed differ", w.Name)
		}
		if other := mustStream(t, w, 8).NextN(n); fmt.Sprint(other) == fmt.Sprint(want) {
			t.Fatalf("%s: seeds 7 and 8 give the same stream", w.Name)
		}
		for _, conns := range []int{1, 2, 5} {
			s := mustStream(t, w, 7)
			parts := make([][]string, conns)
			var wg sync.WaitGroup
			for c := 0; c < conns; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < n/w.Batch/conns; i++ {
						parts[c] = append(parts[c], s.NextN(w.Batch)...)
					}
				}(c)
			}
			wg.Wait()
			var got []string
			for _, p := range parts {
				got = append(got, p...)
			}
			prefix := append([]string(nil), want[:len(got)]...)
			sort.Strings(got)
			sort.Strings(prefix)
			if fmt.Sprint(got) != fmt.Sprint(prefix) {
				t.Fatalf("%s: %d connections drew other queries than the stream's first %d", w.Name, conns, len(got))
			}
		}
	}
}

func TestUniqueStreamNeverRepeats(t *testing.T) {
	w, _ := WorkloadByName("rank_uniq")
	s := mustStream(t, w, 1)
	seen := map[string]bool{testVocab(3)[0] + " w0001 w0002": true} // Federation.SetupQuery
	for i := 0; i < 300000; i++ {
		q := s.Next()
		if seen[q] {
			t.Fatalf("query %d (%q) repeats an earlier one", i, q)
		}
		seen[q] = true
	}
}

func TestHotShareAndColdUniqueness(t *testing.T) {
	w, _ := WorkloadByName("batch_hot")
	s := mustStream(t, w, 3)
	const n = 200000
	counts := make(map[string]int)
	for _, q := range s.NextN(n) {
		counts[q]++
	}
	total, hot := s.Drawn()
	if total != n {
		t.Fatalf("Drawn total = %d, want %d", total, n)
	}
	if share := float64(hot) / n; share < w.HotShare-0.01 || share > w.HotShare+0.01 {
		t.Fatalf("hot share = %.4f, want %.2f within 0.01", share, w.HotShare)
	}
	repeated, repeats := 0, 0
	for _, c := range counts {
		if c > 1 {
			repeated++
			repeats += c
		}
	}
	if repeated > w.HotPool {
		t.Fatalf("%d distinct queries repeat, more than the %d-query hot pool", repeated, w.HotPool)
	}
	if repeats < hot-w.HotPool {
		t.Fatalf("%d repeats do not account for %d hot draws", repeats, hot)
	}
}

func TestVerifySetIsFixedAndDistinct(t *testing.T) {
	a, err := VerifySet(testVocab(4000))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := VerifySet(testVocab(4000))
	if len(a) != VerifyQueries || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("verification set is not a fixed list of %d queries", VerifyQueries)
	}
	seen := make(map[string]bool)
	for _, q := range a {
		if seen[q] {
			t.Fatalf("verification query %q repeats", q)
		}
		seen[q] = true
	}
}

func TestStreamRejectsUnusableVocabulary(t *testing.T) {
	if _, err := NewStream(Workload{}, 1, testVocab(2)); err == nil {
		t.Fatal("a 2-term vocabulary was accepted")
	}
	if _, err := NewStream(Workload{}, 1, testVocab(1<<16)); err == nil {
		t.Fatal("a 65536-term vocabulary was accepted")
	}
}
