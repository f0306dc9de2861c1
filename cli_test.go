package repro

import (
	"encoding/json"
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
	"repro/internal/experiments"
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
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "lm.json")
	binPath := filepath.Join(dir, "lm.qblm")

	_, stderr := runCLI(t, "qbsample",
		"-corpus", "CACM", "-scale", "0.1", "-docs", "50", "-seed", "3", "-out", jsonPath)
	if !strings.Contains(stderr, "sampled") || !strings.Contains(stderr, "accuracy vs actual model") {
		t.Errorf("qbsample stderr:\n%s", stderr)
	}

	stdout, _ := runCLI(t, "lmtool", "info", jsonPath)
	if !strings.Contains(stdout, "vocabulary:") {
		t.Errorf("lmtool info output:\n%s", stdout)
	}

	runCLI(t, "lmtool", "convert", jsonPath, binPath)
	ji, err := os.Stat(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := os.Stat(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if bi.Size() >= ji.Size() {
		t.Errorf("binary (%d) not smaller than JSON (%d)", bi.Size(), ji.Size())
	}

	// compare: a model against itself is perfect.
	stdout, _ = runCLI(t, "lmtool", "compare", jsonPath, binPath)
	if !strings.Contains(stdout, "ctf ratio:        1.0000") {
		t.Errorf("self-compare not perfect:\n%s", stdout)
	}

	stdout, _ = runCLI(t, "lmtool", "top", "-k", "3", binPath)
	if len(strings.Fields(stdout)) < 2 {
		t.Errorf("lmtool top output too small:\n%s", stdout)
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

func TestCLIDbselect(t *testing.T) {
	stdout, _ := runCLI(t, "dbselect",
		"-dbs", "3", "-docs-each", "150", "-sample-docs", "40", "-alg", "gloss-sum")
	if !strings.Contains(stdout, "gloss-sum ranking for query") {
		t.Errorf("dbselect output:\n%s", stdout)
	}
	if !strings.Contains(stdout, "1.") || !strings.Contains(stdout, "db00-") {
		t.Errorf("ranking rows missing:\n%s", stdout)
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

	out := filepath.Join(t.TempDir(), "remote.json")
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
	seeded := filepath.Join(t.TempDir(), "seeded.json")
	runCLI(t, "qbsample", "-addr", addr, "-docs", "30", "-seed", "5", "-out", seeded)
	got, err := langmodel.Load(seeded)
	if err != nil {
		t.Fatal(err)
	}
	env, err := experiments.NewSuite(1, 1).Env("CACM")
	if err != nil {
		t.Fatal(err)
	}
	docs, err := corpus.Scaled(env.Profile, 0.1).Generate()
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
	addr := "127.0.0.1:18731"
	cmd := exec.Command(bin, "-addr", addr, "-demo", "2", "-demo-docs", "120", "-demo-sample", "30")
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
}
