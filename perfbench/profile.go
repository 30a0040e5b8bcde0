package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profileShares is a CPU profile reduced to flat shares.
type profileShares struct {
	total   int64            // CPU nanoseconds over all samples
	byLayer map[string]int64 // leaf-frame package group -> CPU ns
	bySpan  map[string]int64 // innermost "span" label -> CPU ns ("" = unlabelled)
}

// layerOf maps a fully qualified function name to the layer it belongs
// to: the package name under tracecache/internal/, "runtime" for the Go
// runtime, "host" for the reference kernel, and "other" for the rest.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.Index(pkg, "["); i >= 0 {
		pkg = pkg[:i] // type arguments may hold other packages' paths
	}
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "tracecache/internal/"):
		return strings.TrimPrefix(pkg, "tracecache/internal/")
	case pkg == "tracecache/perfbench/refkernel":
		return "host"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	}
	return "other"
}

// readProfile reads a runtime/pprof CPU profile with the installed
// `go tool pprof`: -top lists every function's flat time (the leaf frame
// of each sample, inlined frames as their own functions), -tags the time
// per span label. Samples without a span label make up the rest.
func readProfile(path string) (*profileShares, error) {
	top, err := pprofText("-top", "-nodecount=0", "-nodefraction=0", "-unit=ns", path)
	if err != nil {
		return nil, err
	}
	ps := &profileShares{byLayer: map[string]int64{}, bySpan: map[string]int64{}}
	rows := false
	for sc := bufio.NewScanner(bytes.NewReader(top)); sc.Scan(); {
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			return nil, fmt.Errorf("profile: unexpected pprof -top line %q", sc.Text())
		}
		ns, err := pprofNs(f[0])
		if err != nil {
			return nil, err
		}
		ps.total += ns
		ps.byLayer[layerOf(f[5])] += ns
	}
	if !rows {
		return nil, fmt.Errorf("profile: no function table in pprof -top output")
	}

	tags, err := pprofText("-tags", "-unit=ns", path)
	if err != nil {
		return nil, err
	}
	key, labelled := "", int64(0)
	for sc := bufio.NewScanner(bytes.NewReader(tags)); sc.Scan(); {
		line := strings.TrimSpace(sc.Text())
		if k, _, ok := strings.Cut(line, ": Total "); ok {
			key = k
			continue
		}
		v, label, ok := strings.Cut(line, ": ")
		if key != "span" || !ok {
			continue
		}
		value, _, _ := strings.Cut(v, " ")
		ns, err := pprofNs(value)
		if err != nil {
			return nil, err
		}
		ps.bySpan[label] += ns
		labelled += ns
	}
	ps.bySpan[""] += ps.total - labelled
	return ps, nil
}

// pprofText runs `go tool pprof` with args and returns its output.
func pprofText(args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return out, nil
}

// pprofNs parses a value pprof printed with -unit=ns ("420000000ns",
// "1e+07ns", "0").
func pprofNs(s string) (int64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "ns"), 64)
	if err != nil {
		return 0, fmt.Errorf("profile: pprof value %q: %w", s, err)
	}
	return int64(v), nil
}
