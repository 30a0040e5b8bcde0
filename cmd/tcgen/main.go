// Command tcgen generates and inspects the synthetic benchmark programs.
//
// Usage:
//
//	tcgen -bench gcc -stats           # static + dynamic stream statistics
//	tcgen -bench compress -disasm | head -50
//	tcgen -list
package main

import (
	"flag"
	"fmt"
	"os"

	"tracecache"
	"tracecache/internal/buildinfo"
	"tracecache/internal/isa"
	"tracecache/internal/textplot"
	"tracecache/internal/workload"
)

func main() {
	var (
		bench   = flag.String("bench", "gcc", "benchmark name")
		disasm  = flag.Bool("disasm", false, "print the disassembly")
		doStat  = flag.Bool("stats", true, "print static and dynamic statistics")
		limit   = flag.Uint64("limit", 500_000, "dynamic-analysis instruction budget")
		list    = flag.Bool("list", false, "list benchmarks")
		scale   = flag.Int("scale", 0, "replicate the code footprint this many times (power of two <= 64) for paper-scale runs; 0 or 1 generate the standard program")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("tcgen"))
		return
	}
	if *list {
		for _, name := range tracecache.Benchmarks() {
			p, _ := tracecache.BenchmarkProfile(name)
			fmt.Printf("%-14s paper: %-5s %s\n", name, p.PaperInsts, p.PaperInput)
		}
		return
	}

	p, ok := tracecache.BenchmarkProfile(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "tcgen: unknown benchmark %q (try -list)\n", *bench)
		os.Exit(1)
	}
	prog, err := p.Scaled(*scale).Generate()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcgen: %v\n", err)
		os.Exit(1)
	}

	if *disasm {
		fmt.Print(prog.Disassemble())
		return
	}
	if !*doStat {
		return
	}

	st := prog.Stats()
	fmt.Println(textplot.Table([]string{"Static", "Value"}, [][]string{
		{"instructions", fmt.Sprintf("%d", st.Insts)},
		{"code bytes", fmt.Sprintf("%d", st.Insts*isa.InstBytes)},
		{"conditional branches", fmt.Sprintf("%d", st.CondBranches)},
		{"calls / returns", fmt.Sprintf("%d / %d", st.Calls, st.Returns)},
		{"indirect jumps", fmt.Sprintf("%d", st.Indirects)},
		{"traps", fmt.Sprintf("%d", st.Traps)},
		{"loads / stores", fmt.Sprintf("%d / %d", st.Loads, st.Stores)},
		{"mean static block size", fmt.Sprintf("%.2f", st.MeanBlockSize())},
	}))

	a := workload.Analyze(prog, *limit)
	fmt.Println(textplot.Table([]string{"Dynamic (first " + fmt.Sprint(*limit) + " insts)", "Value"}, [][]string{
		{"mean fetch block size", fmt.Sprintf("%.2f", a.MeanBlockSize())},
		{"conditional branch fraction", fmt.Sprintf("%.1f%%", 100*a.BranchFraction())},
		{"taken fraction", fmt.Sprintf("%.1f%%", 100*a.TakenFraction())},
		{"strongly biased (>=90%) dyn. share", fmt.Sprintf("%.1f%%", 100*a.BiasedDynShare)},
		{"warm branch sites / biased", fmt.Sprintf("%d / %d", a.Sites, a.BiasedSites)},
		{"calls / returns", fmt.Sprintf("%d / %d", a.Calls, a.Returns)},
		{"indirect jumps", fmt.Sprintf("%d", a.Indirects)},
		{"max call depth", fmt.Sprintf("%d", a.MaxCallDepth)},
	}))
}
