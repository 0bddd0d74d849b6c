// Command benchmark is the repo's one benchmark: five named workloads,
// end-to-end metrics with bounds, and per-layer spans timed from outside.
// See README.md beside this file.
//
//	go -C benchmark run . -workload serve_cold [-seed 1] [-seconds 10] [-trace 0|1] [-out f.json]
//	go -C benchmark run . -smoke
//	go -C benchmark run . -workload all -repeat 3 -out a.json
//	go -C benchmark run . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	// Children are started with Pdeathsig, which is tied to the creating
	// thread: keep the main goroutine on the process's first thread.
	runtime.LockOSThread()
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames())+" or all")
	seed := flag.Int64("seed", 1, "seed of the generated operation lists")
	seconds := flag.Float64("seconds", runSeconds, "nominal run length; operation counts scale with it")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics and write the spans file")
	out := flag.String("out", "", "result file to write (JSON)")
	repeat := flag.Int("repeat", 1, "run each workload this many times into one result file")
	smoke := flag.Bool("smoke", false, "every list at 1/100 size, all five workloads")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	root := flag.String("root", ".", "a directory inside the checkout")
	hbspd := flag.String("hbspd", "", "prebuilt hbspd binary (default: build ./cmd/hbspd)")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	writeGolden := flag.Bool("write-golden", false, "record this run's digest in golden.json")
	child := flag.String("child", "", "internal: run a library workload in this process")
	flag.Parse()

	switch {
	case *printManifest:
		fmt.Print(manifest())
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	case *child != "":
		return childMain(*child, *seed, *seconds, *smoke, *trace == 1)
	}

	names := []string{*workload}
	if *smoke && *workload == "" || *workload == "all" {
		names = workloadNames()
	}
	for _, n := range names {
		if !knownWorkload(n) {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; have %v\n", n, workloadNames())
			return 2
		}
	}

	e, err := newEnv(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	children.dirs = append(children.dirs, e.tmp)
	defer cleanup()
	handleSignals()

	h := &harness{env: e, hbspd: *hbspd, seed: *seed, seconds: *seconds, smoke: *smoke,
		traced: *trace == 1, writeGolden: *writeGolden}
	file := newResultFile(e)
	last := 0
	for _, name := range names {
		for i := 0; i < *repeat; i++ {
			res, err := h.runWorkload(name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				return 1
			}
			file.Runs = append(file.Runs, res)
			last = h.report(res)
		}
	}
	if *out != "" {
		data, _ := json.MarshalIndent(file, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	for _, r := range file.Runs {
		if r.Failed > 0 {
			return 1
		}
	}
	return last
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
