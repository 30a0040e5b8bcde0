// Command tcvet is the repository's project-specific static analyzer. It
// machine-checks the contracts the simulator's correctness story rests
// on: determinism of simulation results at any sweep width, the hot-path
// allocation diet, nil-receiver safety of the instrumentation handles,
// and no panics behind input-facing exported APIs.
//
// Usage:
//
//	tcvet ./...            # analyze, print file:line:col diagnostics
//	tcvet -json ./...      # machine-readable output
//	tcvet -version
//
// Suppress one diagnostic with a mandatory reason:
//
//	//tcvet:ignore <analyzer> <reason>
//
// placed on the offending line, the line above it, or the doc comment of
// the enclosing declaration. Exit status: 0 clean, 1 diagnostics (or a
// degraded load), 2 usage or loader failure.
package main

import (
	"flag"
	"fmt"
	"os"

	"tracecache/internal/analysis"
	"tracecache/internal/buildinfo"
)

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit diagnostics as JSON")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tcvet [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("tcvet"))
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcvet: %v\n", err)
		os.Exit(2)
	}

	res, err := analysis.Run(dir, patterns, analysis.Analyzers())
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcvet: %v\n", err)
		os.Exit(2)
	}
	if *jsonOut {
		if err := res.RenderJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "tcvet: %v\n", err)
			os.Exit(2)
		}
	} else {
		res.Render(os.Stdout)
	}
	fmt.Fprintln(os.Stderr, res.Summary())
	os.Exit(res.ExitCode())
}
