package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// HostStats is what GET /bench/stats on the host returns: process
// counters the harness takes deltas of over the timed window.
type HostStats struct {
	Mallocs     uint64 `json:"mallocs"`      // runtime.MemStats.Mallocs
	AllocBytes  uint64 `json:"alloc_bytes"`  // runtime.MemStats.TotalAlloc
	GCCycles    uint64 `json:"gc_cycles"`    // runtime.MemStats.NumGC
	GCPauseNs   uint64 `json:"gc_pause_ns"`  // runtime.MemStats.PauseTotalNs
	CPUMicros   uint64 `json:"cpu_us"`       // getrusage user + system
	PeakRSSKB   uint64 `json:"peak_rss_kb"`  // VmHWM of /proc/self/status; ru_maxrss would do, but a child starts with its parent's
	CtxSwitches uint64 `json:"ctx_switches"` // getrusage voluntary + involuntary
	IOSyscalls  uint64 `json:"io_syscalls"`  // /proc/self/io syscr + syscw
}

// Session owns everything a benchmark invocation leaves outside its own
// memory: the built host binary, a scratch directory, and the host
// processes. Close stops the processes and removes the scratch directory;
// the command calls it on every exit path, signals included.
//
// All of it lives under <repository>/benchmark/.build, inside the checkout
// the benchmark was started from.
type Session struct {
	// Dir is the benchmark's directory, <repository>/benchmark; OutDir,
	// inside it, is where result and trace files go.
	Dir     string
	OutDir  string
	hostBin string
	scratch string
	// hostCPU is the CPU the host pins itself to, -1 when the machine
	// allows only one and there is nothing to keep apart.
	hostCPU int

	mu    sync.Mutex
	hosts []*Host
}

// NewSession finds the repository from the working directory (anywhere
// inside it), builds the host, creates the scratch directory, and pins
// the calling process to the first CPU it may use, leaving the second to
// the hosts.
func NewSession() (*Session, error) {
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		return nil, fmt.Errorf("bench: locating the repository (run from inside it): %w", err)
	}
	root := strings.TrimSpace(string(out))
	s := &Session{Dir: filepath.Join(root, "benchmark")}
	s.OutDir = filepath.Join(s.Dir, "out")
	build := filepath.Join(s.Dir, ".build")
	for _, dir := range []string{s.OutDir, build} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	s.hostBin = filepath.Join(build, "benchhost")
	cmd := exec.Command("go", "build", "-o", s.hostBin, "./benchmark/cmd/benchhost")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("bench: building the host: %w\n%s", err, msg)
	}
	if err := sweepScratch(build); err != nil {
		return nil, err
	}
	if s.scratch, err = os.MkdirTemp(build, fmt.Sprintf("run-%d-", os.Getpid())); err != nil {
		return nil, err
	}
	// Only now that the build, which wants every CPU, is done.
	cpus, err := AllowedCPUs()
	if err != nil {
		return nil, err
	}
	s.hostCPU = -1
	if len(cpus) >= 2 {
		if err := PinProcess(cpus[0]); err != nil {
			return nil, err
		}
		s.hostCPU = cpus[1]
	}
	return s, nil
}

// sweepScratch removes the scratch directories (run-<pid>-*) of sessions
// whose process no longer exists: Close cannot run in a harness that was
// killed outright, and the scratch has to stay inside the checkout.
func sweepScratch(build string) error {
	left, err := filepath.Glob(filepath.Join(build, "run-*"))
	if err != nil {
		return err
	}
	for _, dir := range left {
		var pid int
		if _, err := fmt.Sscanf(filepath.Base(dir), "run-%d-", &pid); err != nil {
			continue // not a name NewSession gives
		}
		if err := syscall.Kill(pid, 0); err == syscall.ESRCH {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	return nil
}

// TempDir makes a new empty directory inside the session's scratch.
func (s *Session) TempDir(label string) (string, error) {
	return os.MkdirTemp(s.scratch, label+"-")
}

// Close stops every host still running and removes the scratch directory.
func (s *Session) Close() error {
	s.mu.Lock()
	hosts := s.hosts
	s.hosts = nil
	s.mu.Unlock()
	for _, h := range hosts {
		h.Stop()
	}
	return os.RemoveAll(s.scratch)
}

// Host is one running benchhost process.
type Host struct {
	URL    string
	cmd    *exec.Cmd
	stdin  io.Closer
	stderr *bytes.Buffer
	client *http.Client
	once   sync.Once
}

// StartHost runs the host with args and waits for it to listen.
func (s *Session) StartHost(args ...string) (*Host, error) {
	h := &Host{
		cmd:    exec.Command(s.hostBin, append([]string{"-cpu", strconv.Itoa(s.hostCPU)}, args...)...),
		stderr: new(bytes.Buffer),
		client: &http.Client{Timeout: 60 * time.Second},
	}
	h.cmd.Stderr = h.stderr
	stdin, err := h.cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	h.stdin = stdin
	stdout, err := h.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := h.cmd.Start(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.hosts = append(s.hosts, h)
	s.mu.Unlock()
	// The host prints one line once it listens, and nothing after; EOF
	// before that line means it died during set-up.
	line, err := bufio.NewReader(stdout).ReadString('\n')
	url, ok := strings.CutPrefix(strings.TrimSpace(line), "BENCHHOST ")
	if err != nil || !ok {
		h.Stop()
		return nil, fmt.Errorf("bench: host did not start (%v): %s", err, h.stderr)
	}
	h.URL = url
	return h, nil
}

// Stop ends the host by closing its standard input, waits for it, and
// kills it if it has not gone within five seconds.
func (h *Host) Stop() {
	h.once.Do(func() {
		// Closing the pipe is the stop signal; it cannot fail in a way
		// the kill timer below does not cover.
		_ = h.stdin.Close()
		kill := time.AfterFunc(5*time.Second, func() {
			_ = h.cmd.Process.Kill() // fails only if the process has just exited by itself
		})
		_ = h.cmd.Wait() // the exit status of a host being torn down decides nothing
		kill.Stop()
	})
}

func (h *Host) getJSON(path string, v any) error {
	resp, err := h.client.Get(h.URL + path)
	if err != nil {
		return err
	}
	//lint:ignore errsink the body is only read; a close error cannot change what was decoded
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// Stats scrapes the host's process counters.
func (h *Host) Stats() (HostStats, error) {
	var st HostStats
	err := h.getJSON("/bench/stats", &st)
	return st, err
}

// Counters scrapes the host's telemetry registry.
func (h *Host) Counters() (telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	err := h.getJSON("/metrics?format=json", &snap)
	return snap, err
}
