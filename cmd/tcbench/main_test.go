package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tracecache/internal/journal"
	"tracecache/internal/stats"
)

// buildBinary compiles tcbench into a temp dir once per test run.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tcbench")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	var o, e bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout = &o
	cmd.Stderr = &e
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr:\n%s", bin, args, err, e.String())
	}
	return o.String(), e.String()
}

// TestMonitoredStdoutByteIdentical is the stdout-purity regression test:
// a parallel tcbench with monitoring and journaling enabled must write
// byte-identical experiment output to a bare sequential run — all
// monitoring output goes to stderr, files and HTTP only.
func TestMonitoredStdoutByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildBinary(t)
	jPath := filepath.Join(t.TempDir(), "runs.jsonl")
	budgets := []string{"-exp", "fig4,table2", "-warmup", "1000", "-insts", "3000"}

	bare, _ := run(t, bin, append([]string{"-j", "1"}, budgets...)...)
	monitored, stderr := run(t, bin,
		append([]string{"-j", "4", "-http", "127.0.0.1:0", "-journal", jPath}, budgets...)...)

	if bare != monitored {
		t.Errorf("monitored stdout differs from bare run:\n--- bare ---\n%s\n--- monitored ---\n%s",
			bare, monitored)
	}
	if !strings.Contains(stderr, "monitoring on http://") {
		t.Errorf("monitoring announce missing from stderr: %q", stderr)
	}

	recs, truncated, err := journal.ReadFile(jPath)
	if err != nil || truncated {
		t.Fatalf("journal: err=%v truncated=%v", err, truncated)
	}
	if len(recs) == 0 {
		t.Fatal("journal is empty")
	}
	for _, rec := range recs {
		if rec.Error != "" {
			t.Errorf("failed record: %+v", rec)
		}
		if rec.Provenance != stats.ProvCold && rec.Provenance != stats.ProvMemoized {
			t.Errorf("unexpected provenance %q (no fast-forward was configured)", rec.Provenance)
		}
	}

	// The report subcommand summarizes the journal without simulating.
	report, _ := run(t, bin, "-journal-report", jPath)
	if !strings.Contains(report, "journal:") || !strings.Contains(report, "cold") {
		t.Errorf("journal report = %q", report)
	}
}

// TestReplayWithFastForwardRefused: -replay and -ffwd exclude each other,
// so the combination exits 1 with a one-line error before simulating.
func TestReplayWithFastForwardRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	var o, e bytes.Buffer
	cmd := exec.Command(buildBinary(t), "-replay", "-ffwd", "1000")
	cmd.Stdout, cmd.Stderr = &o, &e
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit = %v, want status 1", err)
	}
	if o.Len() != 0 || strings.Count(e.String(), "\n") != 1 {
		t.Errorf("stdout %q, stderr %q: want no output and one error line", o.String(), e.String())
	}
}
