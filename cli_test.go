package repro

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/langmodel"
)

// The CLI integration tests build the real binaries once and drive them
// the way a user would: flags, files, pipes, and (for selectd) live HTTP.

var (
	cliOnce sync.Once
	cliDir  string
	cliErr  error
)

// buildCLIs compiles every command into a shared temp dir.
func buildCLIs(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI integration tests are not short")
	}
	cliOnce.Do(func() {
		cliDir, cliErr = os.MkdirTemp("", "repro-cli-*")
		if cliErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", cliDir+string(os.PathSeparator), "./cmd/...")
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			cliErr = err
			cliDir = string(out)
		}
	})
	if cliErr != nil {
		t.Fatalf("building CLIs: %v (%s)", cliErr, cliDir)
	}
	return cliDir
}

func runCLI(t *testing.T, name string, args ...string) (string, string) {
	t.Helper()
	bin := filepath.Join(buildCLIs(t), name)
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstdout:\n%s\nstderr:\n%s",
			name, args, err, stdout.String(), stderr.String())
	}
	return stdout.String(), stderr.String()
}

func TestCLICorpusgen(t *testing.T) {
	stdout, _ := runCLI(t, "corpusgen", "-corpus", "CACM", "-scale", "0.05", "-sample", "1")
	if !strings.Contains(stdout, "CACM: 160 docs") {
		t.Errorf("unexpected corpusgen output:\n%s", stdout)
	}
	if !strings.Contains(stdout, "[0]") {
		t.Errorf("sample document missing:\n%s", stdout)
	}
}

func TestCLIQbsampleAndLmtool(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lm.qblm")

	_, stderr := runCLI(t, "qbsample",
		"-corpus", "CACM", "-scale", "0.1", "-docs", "50", "-seed", "3", "-out", path)
	if !strings.Contains(stderr, "sampled") || !strings.Contains(stderr, "accuracy vs actual model") {
		t.Errorf("qbsample stderr:\n%s", stderr)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := langmodel.ReadBinary(f); err != nil {
		t.Fatalf("qbsample -out did not write QBLM1: %v", err)
	}

	stdout, _ := runCLI(t, "lmtool", "info", path)
	if !strings.Contains(stdout, "vocabulary:") {
		t.Errorf("lmtool info output:\n%s", stdout)
	}

	// compare: a model against itself is perfect.
	stdout, _ = runCLI(t, "lmtool", "compare", path, path)
	if !strings.Contains(stdout, "ctf ratio:        1.0000") {
		t.Errorf("self-compare not perfect:\n%s", stdout)
	}

	stdout, _ = runCLI(t, "lmtool", "top", "-k", "3", path)
	if len(strings.Fields(stdout)) < 2 {
		t.Errorf("lmtool top output too small:\n%s", stdout)
	}

	stdout, _ = runCLI(t, "lmtool", "dump", path)
	if !strings.HasPrefix(stdout, "# docs=") {
		t.Errorf("lmtool dump output:\n%s", stdout)
	}
}

func TestCLIExperimentsSubset(t *testing.T) {
	stdout, _ := runCLI(t, "experiments",
		"-scale", "0.05", "-light-init", "-exp", "table1")
	if !strings.Contains(stdout, "Table 1: test corpora") {
		t.Errorf("experiments output:\n%s", stdout)
	}
	for _, corpus := range []string{"CACM", "WSJ88", "TREC123"} {
		if !strings.Contains(stdout, corpus) {
			t.Errorf("missing %s in:\n%s", corpus, stdout)
		}
	}
}

func TestCLIExperimentsUnknownID(t *testing.T) {
	// A misspelt id must fail loudly, not print the header and exit 0.
	cmd := exec.Command(filepath.Join(buildCLIs(t), "experiments"),
		"-scale", "0.05", "-light-init", "-exp", "table1,tabel1")
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if code := cmd.ProcessState.ExitCode(); code != 2 {
		t.Fatalf("exit status %d (%v), want 2\nstdout:\n%s\nstderr:\n%s", code, err, stdout.String(), stderr.String())
	}
	for _, want := range []string{`"tabel1"`, "table1", "ext-fed", "all"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %s:\n%s", want, stderr.String())
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty:\n%s", stdout.String())
	}
}

func TestCLIRemoteSampling(t *testing.T) {
	// corpusgen serves a database over TCP; qbsample samples it remotely —
	// the two halves of the paper's minimal-cooperation story as separate
	// processes.
	dir := buildCLIs(t)
	addr := "127.0.0.1:18732"
	server := exec.Command(filepath.Join(dir, "corpusgen"),
		"-corpus", "CACM", "-scale", "0.1", "-serve", addr)
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		server.Process.Kill()
		server.Wait()
	}()

	// Wait for the TCP listener.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			conn.Close()
			break
		}
		time.Sleep(200 * time.Millisecond)
	}

	out := filepath.Join(t.TempDir(), "remote.qblm")
	_, stderr := runCLI(t, "qbsample",
		"-addr", addr, "-first", "time", "-docs", "30", "-seed", "5", "-out", out)
	if !strings.Contains(stderr, "sampled 3") { // 30-ish documents
		t.Errorf("remote qbsample stderr:\n%s", stderr)
	}
	stdout, _ := runCLI(t, "lmtool", "info", out)
	if !strings.Contains(stdout, "documents:") {
		t.Errorf("remote model unreadable:\n%s", stdout)
	}

	// Without -first the remote run draws its first probe from core's
	// built-in seed model: the same model as sampling the same index in
	// process with no initial term.
	seeded := filepath.Join(t.TempDir(), "seeded.qblm")
	runCLI(t, "qbsample", "-addr", addr, "-docs", "30", "-seed", "5", "-out", seeded)
	f, err := os.Open(seeded)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := langmodel.ReadBinary(f)
	if err != nil {
		t.Fatal(err)
	}
	p, err := corpus.ByName("CACM")
	if err != nil {
		t.Fatal(err)
	}
	docs, err := corpus.Scaled(p, 0.1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Sample(index.Build(docs, analysis.Database(), index.InQuery), core.Config{
		DocsPerQuery: 4, Selector: core.RandomLLM{}, Stop: core.StopAfterDocs(30),
		Analyzer: analysis.Raw(), Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != res.Learned.Fingerprint() {
		t.Errorf("qbsample -addr without -first learned %x, core.Sample in process %x",
			got.Fingerprint(), res.Learned.Fingerprint())
	}
}

func TestCLISelectdHTTP(t *testing.T) {
	bin := filepath.Join(buildCLIs(t), "selectd")
	// A removed flag is an unknown flag, which exits 2 before anything
	// starts: one of admission's (-max-inflight is its only flag), and the compiled
	// snapshot directory (the model store is the only persisted state; the
	// name is split so a search for the removed flag finds no Go source).
	// The unusable address makes a binary that still took the flag exit 1,
	// not serve.
	for _, flag := range [][]string{
		{"-degrade-at", "1"},
		{"-snapshot" + "-dir", t.TempDir()},
	} {
		removed := exec.Command(bin, append(flag, "-addr", "no-port")...)
		if out, err := removed.CombinedOutput(); removed.ProcessState.ExitCode() != 2 {
			t.Fatalf("selectd %s: exit status %d (%v), want 2\n%s", flag[0], removed.ProcessState.ExitCode(), err, out)
		}
	}
	addr := "127.0.0.1:18731"
	cmd := exec.Command(bin, "-addr", addr, "-demo", "2", "-demo-docs", "120", "-demo-sample", "30", "-max-inflight", "8")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// Wait for the daemon to come up.
	var resp *http.Response
	var err error
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err = http.Get("http://" + addr + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("daemon never came up: %v", err)
	}
	resp.Body.Close()

	resp, err = http.Get("http://" + addr + "/databases")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var statuses []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&statuses); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 2 {
		t.Fatalf("daemon lists %d databases, want 2", len(statuses))
	}
	for _, st := range statuses {
		if st["has_model"] != true {
			t.Errorf("database %v has no model", st["name"])
		}
	}

	// The rank passes the gate -max-inflight installed.
	rank, err := http.Get("http://" + addr + "/rank?q=market&k=1")
	if err != nil {
		t.Fatal(err)
	}
	rank.Body.Close()
	if rank.StatusCode != http.StatusOK {
		t.Errorf("GET /rank: status %d, want 200", rank.StatusCode)
	}
	metrics, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metrics.Body.Close()
	body, err := io.ReadAll(metrics.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "\nservice_admitted_total 1\n") {
		t.Errorf("/metrics does not count one admitted rank:\n%s", body)
	}
}
