package main

import (
	"bytes"
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
// a parallel tcbench with progress lines and the journal enabled must
// write byte-identical experiment output to a bare sequential run — both
// go to stderr and files only, one progress line per journal record.
func TestMonitoredStdoutByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildBinary(t)
	jPath := filepath.Join(t.TempDir(), "runs.jsonl")
	budgets := []string{"-exp", "fig4,table2", "-warmup", "1000", "-insts", "3000"}

	bare, _ := run(t, bin, append([]string{"-j", "1"}, budgets...)...)
	monitored, stderr := run(t, bin,
		append([]string{"-j", "4", "-progress", "-journal", jPath}, budgets...)...)

	if bare != monitored {
		t.Errorf("monitored stdout differs from bare run:\n--- bare ---\n%s\n--- monitored ---\n%s",
			bare, monitored)
	}

	recs, truncated, err := journal.ReadFile(jPath)
	if err != nil || truncated {
		t.Fatalf("journal: err=%v truncated=%v", err, truncated)
	}
	if len(recs) == 0 {
		t.Fatal("journal is empty")
	}
	lines := strings.Split(strings.TrimSuffix(stderr, "\n"), "\n")
	if len(lines) != len(recs) {
		t.Errorf("stderr holds %d lines for %d journal records:\n%s", len(lines), len(recs), stderr)
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "tcbench: done ") {
			t.Errorf("stderr line %q is not a progress line", line)
		}
	}
	for _, rec := range recs {
		if rec.Error != "" || rec.StoreError != "" {
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
