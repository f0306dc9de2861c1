package bench

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/parallel"
	"repro/internal/telemetry"
)

// Metric is one measured value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run's outcome. A request that got a non-2xx answer, a
// transport error, or a malformed or missing frame is a failure and
// contributes to no latency metric; a 429 is a failure too, and is also
// counted in Shed (admission is off, so any shed is a defect).
type Result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Succeeded int               `json:"succeeded"`
	Failed    int               `json:"failed"`
	Shed      int               `json:"shed"`
	FirstErr  string            `json:"first_error,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Summary is the result file of a full run (out/result.json). The
// benchmark measures; it claims nothing, and the file ends by saying so.
type Summary struct {
	Seed    uint64    `json:"seed"`
	Seconds int       `json:"seconds"`
	Runs    []*Result `json:"runs"`
	Claim   *string   `json:"claim"`
}

func (r *Result) set(defs []MetricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = Metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in spec.go")
}

// deployment is a host set up for a workload, with what the harness
// needs to check its answers.
type deployment struct {
	host *Host
	fed  *Federation
	ref  *Reference
	// resampled holds, per text database (Federation.Text order), the
	// seed of its latest re-sample (0 = still the set-up model).
	resampled []uint64
}

// prepared holds a workload's inputs, made once per run and shared by
// every set-up repeat.
type prepared struct {
	w        Workload
	fed      *Federation
	storeDir string // the synthetic models, stored: what a warm host loads
}

func prepare(s *Session, w Workload) (*prepared, error) {
	p := &prepared{w: w, fed: SyntheticFederation()}
	var err error
	if w.Refresh {
		if p.fed, err = MixedFederation(TextDBs); err != nil {
			return nil, err
		}
	}
	if p.storeDir, err = s.TempDir("models"); err != nil {
		return nil, err
	}
	return p, p.fed.WriteStore(p.storeDir)
}

// copyStore copies the model files of one store directory into another,
// without the fsyncs of writing them through the store again.
func copyStore(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// setUp starts a host and brings it to its first correct rank answer,
// returning the time that took from process start: model load (or the
// initial sampling of every text database), registration, first compile.
func (p *prepared) setUp(s *Session) (*deployment, time.Duration, error) {
	args := []string{"-store", p.storeDir, "-shards", strconv.Itoa(p.w.Shards)}
	if p.w.Refresh {
		// Sampling persists each learned model, so every repeat gets its
		// own copy of the store: a host that found a text database's
		// model there would take the database for a warm one.
		dir, err := s.TempDir("store")
		if err != nil {
			return nil, 0, err
		}
		if err := copyStore(p.storeDir, dir); err != nil {
			return nil, 0, err
		}
		args = []string{"-store", dir, "-refresh"}
	}
	t0 := time.Now()
	host, err := s.StartHost(args...)
	if err != nil {
		return nil, 0, err
	}
	d := &deployment{
		host: host, fed: p.fed, ref: NewReference(p.fed, p.w.Shards),
		resampled: make([]uint64, len(p.fed.Text)),
	}
	c := newConn(host.URL)
	defer c.close()
	for _, db := range p.fed.Text {
		if _, err := c.sample(db.Name, InitialSampleDocs, 1, db.InitialTerm); err != nil {
			return nil, 0, fmt.Errorf("bench: set-up sampling: %w", err)
		}
	}
	query := p.fed.SetupQuery()
	got, err := c.rank(query)
	elapsed := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("bench: first rank: %w", err)
	}
	for t := range p.fed.Text {
		if _, err := p.fed.SetModel(t, InitialSampleDocs, 1); err != nil {
			return nil, 0, err
		}
	}
	want, err := d.ref.Host(query)
	if err != nil {
		return nil, 0, err
	}
	if !sameRanking(got, want) {
		return nil, 0, fmt.Errorf("bench: first rank answer is wrong: got %v, want %v", got, want)
	}
	return d, elapsed, nil
}

// sameRanking compares names and score bits.
func sameRanking(a, b []Ranked) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}

// window is what the closed-loop clients measured between two instants.
type window struct {
	elapsed   time.Duration
	latencies []float64 // seconds, successful rank requests
	ttfrs     []float64 // seconds, same requests
	queries   int       // rank queries answered
	attempted int       // requests sent, re-samples included
	failed    int
	shed      int
	firstErr  string
	busy      time.Duration // time inside requests, all connections
	loop      time.Duration // time inside the client loops, all connections
	requests  int           // successful requests of any kind
}

func (w *window) merge(o *window) {
	w.latencies = append(w.latencies, o.latencies...)
	w.ttfrs = append(w.ttfrs, o.ttfrs...)
	w.queries += o.queries
	w.attempted += o.attempted
	w.failed += o.failed
	w.shed += o.shed
	if w.firstErr == "" {
		w.firstErr = o.firstErr
	}
	w.busy += o.busy
	w.loop += o.loop
	w.requests += o.requests
}

func (w *window) fail(err error) {
	w.failed++
	if isShed(err) {
		w.shed++
	}
	if w.firstErr == "" {
		w.firstErr = err.Error()
	}
}

// loadState carries what must continue from the warm-up into the timed
// window: the query stream and the refresh cycle count.
type loadState struct {
	stream *Stream
	cycle  int
}

// drive runs the workload's closed loops for d and returns what they saw.
// Each connection sends its next request only when the previous one has
// been answered and validated.
func (dep *deployment) drive(w Workload, st *loadState, d time.Duration) *window {
	conns := make([]*conn, w.Conns)
	for i := range conns {
		conns[i] = newConn(dep.host.URL)
	}
	start := time.Now()
	deadline := start.Add(d)
	// One goroutine per connection; the loops report failures in their
	// windows, never as errors.
	parts, _ := parallel.Map(w.Conns, conns, func(_ int, c *conn) (*window, error) {
		defer c.close()
		win := &window{}
		t0 := time.Now()
		if w.Refresh {
			dep.refreshLoop(c, w, st, deadline, win)
		} else {
			rankLoop(c, w, st.stream, deadline, win)
		}
		win.loop = time.Since(t0)
		return win, nil
	})
	total := &window{elapsed: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

func rankLoop(c *conn, w Workload, stream *Stream, deadline time.Time, win *window) {
	for time.Now().Before(deadline) {
		rankOnce(c, w, stream, win)
	}
}

// rankOnce sends one rank request of the workload's shape, carrying the
// stream's next queries, and books its outcome.
func rankOnce(c *conn, w Workload, stream *Stream, win *window) {
	queries := stream.NextN(w.Batch)
	t0 := time.Now()
	_, ttfr, err := c.send(w.Shape, queries)
	lat := time.Since(t0)
	win.attempted++
	win.busy += lat
	if err != nil {
		win.fail(err)
		return
	}
	if w.Shape != ShapeStream {
		// A buffered answer's first result arrives with its last.
		ttfr = lat
	}
	win.requests++
	win.queries += len(queries)
	win.latencies = append(win.latencies, lat.Seconds())
	win.ttfrs = append(win.ttfrs, ttfr.Seconds())
}

// refreshLoop alternates one re-sample (round-robin over the text
// databases, seeded by the cycle number) with BatchesPerRefresh rank
// requests. A cycle begun before the deadline is finished, so the mix of
// 1 re-sample to BatchesPerRefresh batches is exact. It runs on one
// connection: the deployment's record of what was re-sampled is updated
// between requests without locking.
func (dep *deployment) refreshLoop(c *conn, w Workload, st *loadState, deadline time.Time, win *window) {
	for time.Now().Before(deadline) {
		st.cycle++
		t := st.cycle % len(dep.fed.Text)
		db, seed := dep.fed.Text[t], uint64(st.cycle)
		t0 := time.Now()
		_, err := c.sample(db.Name, ResampleDocs, seed, db.InitialTerm)
		win.busy += time.Since(t0)
		win.attempted++
		if err != nil {
			win.fail(err)
			continue
		}
		win.requests++
		dep.resampled[t] = seed
		for n := 0; n < BatchesPerRefresh; n++ {
			rankOnce(c, w, st.stream, win)
		}
	}
}

// verify sends the fixed verification set through the workload's request
// shape. hostAgree is the share of answers equal, names and score bits, to
// what a correct host of this topology returns (it must be 1). wholeAgree
// is the mean share of the single-partition ranking's names found in the
// answer: 1 unless the topology changes which databases are selected.
func (dep *deployment) verify(w Workload) (hostAgree, wholeAgree float64, win *window, err error) {
	queries, err := VerifySet(dep.fed.Vocab)
	if err != nil {
		return 0, 0, nil, err
	}
	win = &window{}
	c := newConn(dep.host.URL)
	defer c.close()
	hostOK, overlap := 0, 0.0
	for lo := 0; lo < len(queries); lo += w.Batch {
		hi := min(lo+w.Batch, len(queries))
		answers, _, err := c.send(w.Shape, queries[lo:hi])
		win.attempted++
		if err != nil {
			win.fail(err)
			continue
		}
		win.requests++
		for i, got := range answers {
			want, err := dep.ref.Host(queries[lo+i])
			if err != nil {
				return 0, 0, nil, err
			}
			if sameRanking(got, want) {
				hostOK++
			} else if win.firstErr == "" {
				win.firstErr = fmt.Sprintf("query %q: got %v, want %v", queries[lo+i], got, want)
			}
			overlap += nameOverlap(got, dep.ref.Whole(queries[lo+i]))
		}
	}
	n := float64(len(queries))
	return float64(hostOK) / n, overlap / n, win, nil
}

// nameOverlap is the share of want's names that got contains.
func nameOverlap(got, want []Ranked) float64 {
	in := make(map[string]bool, len(got))
	for _, r := range got {
		in[r.Name] = true
	}
	n := 0
	for _, r := range want {
		if in[r.Name] {
			n++
		}
	}
	return float64(n) / float64(len(want))
}

// syncModels brings the harness's copy of a refreshed federation to the
// models the host now serves, by re-running each database's last
// re-sample locally.
func (dep *deployment) syncModels() error {
	for t, seed := range dep.resampled {
		if seed == 0 {
			continue
		}
		if _, err := dep.fed.SetModel(t, ResampleDocs, seed); err != nil {
			return err
		}
	}
	return nil
}

// warmUp is the untimed load before the window: long enough for the
// host's caches, connection pools and heap to reach steady state.
func warmUp(seconds int) time.Duration {
	return min(5*time.Second, time.Duration(seconds)*time.Second/5)
}

// measured is a timed window with the host's counters on both sides.
type measured struct {
	win             *window
	before, after   HostStats
	cBefore, cAfter telemetry.Snapshot
}

// measure warms the deployment up, then drives it for d between two
// scrapes of the host.
func (dep *deployment) measure(w Workload, seed uint64, warm, d time.Duration) (*measured, error) {
	stream, err := NewStream(w, seed, dep.fed.Vocab)
	if err != nil {
		return nil, err
	}
	st := &loadState{stream: stream}
	if warmWin := dep.drive(w, st, warm); warmWin.failed > 0 {
		return nil, fmt.Errorf("bench: %d of %d warm-up requests failed: %s",
			warmWin.failed, warmWin.attempted, warmWin.firstErr)
	}
	m := &measured{}
	if m.before, err = dep.host.Stats(); err != nil {
		return nil, err
	}
	if m.cBefore, err = dep.host.Counters(); err != nil {
		return nil, err
	}
	m.win = dep.drive(w, st, d)
	if m.after, err = dep.host.Stats(); err != nil {
		return nil, err
	}
	if m.cAfter, err = dep.host.Counters(); err != nil {
		return nil, err
	}
	return m, nil
}

// RunEndToEnd is one untraced run: SetupRepeats set-ups (the last host
// stays up), warm-up, the timed window, verification. It reports every
// EndToEnd metric.
func RunEndToEnd(s *Session, w Workload, seed uint64, seconds int) (*Result, error) {
	p, err := prepare(s, w)
	if err != nil {
		return nil, err
	}
	var dep *deployment
	setups := make([]float64, SetupRepeats)
	for i := range setups {
		if dep != nil {
			dep.host.Stop()
		}
		var took time.Duration
		if dep, took, err = p.setUp(s); err != nil {
			return nil, err
		}
		setups[i] = took.Seconds()
	}
	defer dep.host.Stop()

	m, err := dep.measure(w, seed, warmUp(seconds), time.Duration(seconds)*time.Second)
	if err != nil {
		return nil, err
	}
	res, agree, err := dep.finish(w, seed, seconds, m.win)
	if err != nil {
		return nil, err
	}
	win := m.win
	if win.queries == 0 {
		return nil, fmt.Errorf("bench: no rank query was answered: %s", win.firstErr)
	}
	sort.Float64s(win.latencies)
	sort.Float64s(win.ttfrs)
	q := float64(win.queries)
	res.set(EndToEnd, "setup_s", Median(setups))
	res.set(EndToEnd, "qps", q/win.elapsed.Seconds())
	res.set(EndToEnd, "p50_us", Quantile(win.latencies, 0.50)*1e6)
	res.set(EndToEnd, "ttfr_p50_us", Quantile(win.ttfrs, 0.50)*1e6)
	res.set(EndToEnd, "cpu_us_per_query", float64(m.after.CPUMicros-m.before.CPUMicros)/q)
	res.set(EndToEnd, "allocs_per_query", float64(m.after.Mallocs-m.before.Mallocs)/q)
	res.set(EndToEnd, "rss_mb", float64(m.after.PeakRSSKB)/1024)
	res.set(EndToEnd, "topk_agree", agree)
	return res, nil
}

// finish verifies the deployment after its window and starts the run's
// Result: counts and correctness. It also returns the answers' mean name
// overlap with the single-partition ranking (topk_agree).
func (dep *deployment) finish(w Workload, seed uint64, seconds int, win *window) (*Result, float64, error) {
	if err := dep.syncModels(); err != nil {
		return nil, 0, err
	}
	hostAgree, wholeAgree, vwin, err := dep.verify(w)
	if err != nil {
		return nil, 0, err
	}
	res := &Result{
		Workload:  w.Name,
		Seed:      seed,
		Seconds:   seconds,
		Attempted: win.attempted + vwin.attempted,
		Failed:    win.failed + vwin.failed,
		Shed:      win.shed + vwin.shed,
		FirstErr:  win.firstErr,
		Metrics:   make(map[string]Metric),
	}
	if res.FirstErr == "" {
		res.FirstErr = vwin.firstErr
	}
	res.Succeeded = res.Attempted - res.Failed
	// Every answer must be the one a correct host of this topology gives;
	// a single-process host's must also be the single-partition ranking.
	res.Correct = res.Failed == 0 && hostAgree == 1 && (w.Shards > 0 || wholeAgree == 1)
	return res, wholeAgree, nil
}
