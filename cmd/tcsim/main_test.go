package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tracecache/internal/journal"
	"tracecache/internal/stats"
	"tracecache/internal/workload"
)

// buildBinary compiles tcsim into a temp dir.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "tcsim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestModesShareTail: every mode ends in the one tail that stops the
// profiler, stamps, journals and prints, so -sample and -replay write
// both profiles and a one-record journal with their own provenance.
func TestModesShareTail(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildBinary(t)
	for _, tc := range []struct {
		name string
		args []string
		prov string
	}{
		{"sample", []string{"-insts", "20000", "-sample", "1000:5000:1000"}, stats.ProvSampled},
		{"replay", []string{"-warmup", "2000", "-insts", "8000", "-replay"}, stats.ProvReplay},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cpu := filepath.Join(dir, "cpu.pprof")
			mem := filepath.Join(dir, "mem.pprof")
			jPath := filepath.Join(dir, "runs.jsonl")
			args := append([]string{"-bench", "gcc", "-json",
				"-cpuprofile", cpu, "-memprofile", mem, "-journal", jPath}, tc.args...)
			var stderr bytes.Buffer
			cmd := exec.Command(bin, args...)
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("tcsim %v: %v\n%s", args, err, stderr.String())
			}
			if !bytes.HasPrefix(bytes.TrimSpace(out), []byte("{")) {
				t.Errorf("-json printed %q, want a JSON summary", out)
			}
			for _, p := range []string{cpu, mem} {
				if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
					t.Errorf("profile %s not written (stat err %v)", filepath.Base(p), err)
				}
			}
			recs, truncated, err := journal.ReadFile(jPath)
			if err != nil || truncated {
				t.Fatalf("journal: err=%v truncated=%v", err, truncated)
			}
			if len(recs) != 1 {
				t.Fatalf("journal holds %d records, want 1", len(recs))
			}
			if recs[0].Provenance != tc.prov {
				t.Errorf("journal provenance = %q, want %q", recs[0].Provenance, tc.prov)
			}
			if m := recs[0].Meta; m == nil || !strings.HasPrefix(m.Tool, "tcsim ") {
				t.Errorf("journal record not stamped with the tool: meta %+v", m)
			}
		})
	}
}

// TestScaleRunsScaledProgram: -scale N runs the benchmark's profile
// scaled N times, as tcgen -scale generates it, under its scaled name and
// with the profile's seed in the provenance.
func TestScaleRunsScaledProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildBinary(t)
	args := []string{"-bench", "gcc", "-scale", "8", "-warmup", "2000", "-insts", "8000", "-json"}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("tcsim %v: %v\n%s", args, err, stderr.String())
	}
	var sum stats.Summary
	if err := json.Unmarshal(out, &sum); err != nil {
		t.Fatalf("-json printed %q: %v", out, err)
	}
	gcc, _ := workload.ByName("gcc")
	if sum.Benchmark != "gccx8" || sum.Meta == nil || sum.Meta.Seed != gcc.Seed {
		t.Errorf("summary benchmark %q, meta %+v; want gccx8 with seed %d", sum.Benchmark, sum.Meta, gcc.Seed)
	}
}

// TestReplayVerifyRefusesSummaryFlags: -replay-verify compares two runs
// and has no single summary, so -json and -journal are refused rather
// than ignored.
func TestReplayVerifyRefusesSummaryFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildBinary(t)
	jPath := filepath.Join(t.TempDir(), "runs.jsonl")
	// At these budgets the verification itself passes, so only the
	// refusal can make the run exit non-zero.
	for _, extra := range [][]string{{"-json"}, {"-journal", jPath}} {
		args := append([]string{"-bench", "gcc", "-warmup", "20000", "-insts", "60000", "-replay-verify"}, extra...)
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Errorf("tcsim %v exited 0, want a refusal:\n%s", args, out)
		}
		if !strings.Contains(string(out), "cannot be combined") {
			t.Errorf("tcsim %v: output %q, want a one-line refusal", args, out)
		}
	}
	if _, err := os.Stat(jPath); !os.IsNotExist(err) {
		t.Errorf("refused run wrote the journal (stat err %v)", err)
	}
}

// TestReplayVerifyOutOfDomain: below the budgets the replay envelope was
// calibrated at (check.InReplayDomain), -replay-verify still prints the
// comparison but reports the run as out of domain and exits non-zero,
// whether or not the comparison breaks the envelope (at 2k+8k baseline
// does, promo-pack-costreg does not).
func TestReplayVerifyOutOfDomain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := buildBinary(t)
	for _, cfg := range []string{"baseline", "promo-pack-costreg"} {
		args := []string{"-bench", "gcc", "-config", cfg, "-warmup", "2000", "-insts", "8000", "-replay-verify"}
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Errorf("tcsim %v exited 0, want an out-of-domain report", args)
		}
		for _, want := range []string{"mispredict     detailed=", "outside the calibrated domain"} {
			if !strings.Contains(string(out), want) {
				t.Errorf("tcsim %v: output lacks %q:\n%s", args, want, out)
			}
		}
		for _, never := range []string{"passed", "FAILED"} {
			if strings.Contains(string(out), never) {
				t.Errorf("tcsim %v: out-of-domain run reported %q:\n%s", args, never, out)
			}
		}
	}
}
