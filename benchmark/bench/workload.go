package bench

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/randx"
)

// Stream is a workload's query sequence: a pure function of (workload,
// seed, vocabulary), so the same seed replays the same queries in the
// same order however many connections draw from it. Next is safe for
// concurrent use; connections take queries in arrival order.
//
// Every query outside the hot pool is unique across the stream: a Zipf
// draw that repeats an earlier query (or a hot one) is redrawn, so the
// host's result cache and coalescer can only ever help on hot positions.
type Stream struct {
	mu       sync.Mutex
	src      *randx.Source
	zipf     *randx.Zipf
	vocab    []string
	hot      []string
	hotZipf  *randx.Zipf
	hotShare float64
	seen     map[uint64]struct{}
	drawn    int
	hotDrawn int
}

// NewStream starts the query stream of w for seed over vocab, which must
// hold at least QueryTerms and fewer than 1<<16 terms.
func NewStream(w Workload, seed uint64, vocab []string) (*Stream, error) {
	if len(vocab) < QueryTerms || len(vocab) >= 1<<16 {
		return nil, fmt.Errorf("bench: vocabulary of %d terms is outside [%d, 65536)", len(vocab), QueryTerms)
	}
	root := randx.New(seed)
	s := &Stream{
		src:      root.Fork(1),
		vocab:    vocab,
		hotShare: w.HotShare,
		seen:     make(map[uint64]struct{}),
	}
	// Reserve Federation.SetupQuery: terms 0, 1, 2 in that order.
	var setup uint64
	for t := 0; t < QueryTerms; t++ {
		setup = setup<<16 | uint64(t)
	}
	s.seen[setup] = struct{}{}
	s.zipf = randx.NewZipf(s.src, ZipfS, 1, uint64(len(vocab)-1))
	if w.HotPool > 0 {
		// The pool comes from its own fork, so its queries do not depend
		// on how many the stream has handed out. Hot positions favour the
		// pool's head the way a query log favours its popular queries.
		pool := root.Fork(0)
		poolZipf := randx.NewZipf(pool, ZipfS, 1, uint64(len(vocab)-1))
		s.hot = make([]string, w.HotPool)
		for i := range s.hot {
			s.hot[i] = s.fresh(poolZipf)
		}
		s.hotZipf = randx.NewZipf(s.src, ZipfS, 1, uint64(w.HotPool-1))
	}
	return s, nil
}

// fresh draws queries from z until one has not been handed out before.
func (s *Stream) fresh(z *randx.Zipf) string {
	var idx [QueryTerms]uint64
	for {
		var key uint64
		for t := range idx {
			idx[t] = z.Uint64()
			key = key<<16 | idx[t]
		}
		if _, dup := s.seen[key]; dup {
			continue
		}
		s.seen[key] = struct{}{}
		var sb strings.Builder
		for t, i := range idx {
			if t > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(s.vocab[i])
		}
		return sb.String()
	}
}

// Next returns the stream's next query.
func (s *Stream) Next() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next()
}

// NextN returns the next n queries, consecutive in the stream even when
// other connections are drawing too: one request's batch.
func (s *Stream) NextN(n int) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func (s *Stream) next() string {
	s.drawn++
	if s.hot != nil && s.src.Float64() < s.hotShare {
		s.hotDrawn++
		return s.hot[s.hotZipf.Uint64()]
	}
	return s.fresh(s.zipf)
}

// Drawn reports how many queries the stream has handed out and how many
// of them came from the hot pool.
func (s *Stream) Drawn() (total, hot int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drawn, s.hotDrawn
}

// VerifySet is the fixed verification query set over vocab: the same
// queries whatever the run's seed, none repeated.
func VerifySet(vocab []string) ([]string, error) {
	s, err := NewStream(Workload{}, VerifySeed, vocab)
	if err != nil {
		return nil, err
	}
	return s.NextN(VerifyQueries), nil
}
