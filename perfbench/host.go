package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tracecache/perfbench/refkernel"
)

// Host time is the process's CPU time (user + system, all threads) with
// half the host's steal share taken out, scaled by the reference kernel
// timed around it: a figure is reported as if the kernel had taken
// refNominalMs. On a VM with shared vCPUs, wall time counts every wait
// for a vCPU; CPU time drops those waits, but the guest still charges
// part of each stolen interval to the running task, and the host's own
// speed moves with co-tenant load and clock frequency, which the kernel
// measures.
//
// Calibration on 2 shared vCPUs of a Firecracker VM (Go 1.24), as the
// run-to-run interquartile spread of the median repetition's throughput:
// in 8 suite-detailed and 8 frontend-replay runs under 5-30% steal, wall
// time spread 31% and 23%, CPU time 11% and 8.5%, kernel-scaled CPU time
// 6.1% and 7.1%, and kernel-scaled CPU time with a share of the steal
// taken out 4.5%/5.0% (a quarter), 2.7%/4.9% (half), 5.1%/7.4% (three
// quarters) and 6.8%/10.5% (all of it). In 10 suite-detailed runs that
// moved from under 5% to over 20% steal midway, kernel-scaled CPU time
// spread 8.0%, and taking out half the steal brought it near 3%; in 5
// frontend-replay runs without steal while the host sped up by a fifth,
// CPU time spread 12% and kernel-scaled CPU time 2-3%. A 2 MiB table
// walk, a plain 256 KiB walk and a pure ALU loop tracked the simulator
// worse than this kernel.

// refNominalMs is the reference kernel's typical time on the calibration
// host; it only sets the scale of adjusted figures.
const refNominalMs = 5.5

// stealCharge is the share of the /proc/stat steal share that is taken
// out of CPU time (see the calibration above).
const stealCharge = 0.5

// cpuNow returns the process's CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostClock times the reference kernel between workload repetitions.
type hostClock struct {
	k       *refkernel.Kernel
	samples []float64 // every kernel sample, ms of CPU time
	tr      *tracer
	sink    uint32
}

func newHostClock(tr *tracer) *hostClock {
	return &hostClock{k: refkernel.New(), tr: tr}
}

// sample runs the kernel five times and records and returns the fastest
// CPU time in ms: the guest charges stolen intervals to the running task,
// and the fastest of five short runs is the one least likely to contain
// one.
func (h *hostClock) sample() float64 {
	best := math.Inf(1)
	h.tr.begin("host.ref_kernel", false)
	for i := 0; i < 5; i++ {
		t := cpuNow()
		h.sink += h.k.Run()
		best = math.Min(best, float64(cpuNow()-t)/1e6)
	}
	h.tr.end()
	h.samples = append(h.samples, best)
	return best
}

// scale converts host CPU seconds, measured while the host's steal share
// was steal and the reference kernel took kernelMs, into seconds on the
// nominal host.
func scale(cpu time.Duration, steal, kernelMs float64) float64 {
	return cpu.Seconds() * (1 - stealCharge*steal) * refNominalMs / kernelMs
}

// peakRSSMB is the process's maximum resident set size since the last
// resetPeakRSS.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, which
// getrusage reports as the maximum RSS, so each repetition's peak can be
// read on its own (Linux: "5" to /proc/self/clear_refs). Without the
// reset peak_rss_mb would silently become the process's lifetime peak,
// set-up included, so a host without it fails the run.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("cannot reset the peak RSS for peak_rss_mb: %w", err)
	}
	return nil
}

// cpuTicks reads the aggregate steal and total jiffies from /proc/stat;
// ok is false where the file is unavailable.
func cpuTicks() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the host's steal share over an interval.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{s, t, ok}
}

// frac returns the steal share of all CPU time since start.
func (m stealMeter) frac() float64 {
	s, t, ok := cpuTicks()
	if !ok || !m.ok || t <= m.total {
		return 0
	}
	return float64(s-m.steal) / float64(t-m.total)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread returns (max-min)/median, the run-to-run raw spread printed in
// the host audit.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	if m := median(xs); m > 0 {
		return (hi - lo) / m
	}
	return 0
}
