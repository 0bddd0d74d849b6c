package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// compareFiles prints, per workload, for every end-to-end metric and for
// the median latency of every request class (judged by lat_p50_ms's bound, so
// that a class is gated on its own and not through its share of the list),
// the median, quartiles and sample count of both result files and a verdict
// against the bound:
//
//	ok          b's median is no worse than a's by more than the bound
//	regressed   it is worse by more than the bound
//	unresolved  the spread between a's own runs (Q3−Q1 as a share of the
//	            median) is wider than the bound, so the bound cannot be
//	            judged — unless every run of b reads better than every run of
//	            a, which is ok
//
// It returns 1 when any metric regressed.
func compareFiles(pathA, pathB string) int {
	a, err := readResults(pathA)
	if err == nil {
		var b *resultFile
		if b, err = readResults(pathB); err == nil {
			return compareResults(a, b)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	return 2
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric of one workload over a file's runs.
func (f *resultFile) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if r.Workload != workload {
			continue
		}
		if x, ok := r.EndToEnd[metric]; ok {
			v = append(v, x)
		} else if x, ok := r.PerLayer[metric]; ok {
			v = append(v, x)
		}
	}
	return v
}

// judged are the metrics -compare gives a verdict on: the end-to-end ones
// and each request class's median latency under lat_p50_ms's bound.
func judged() []metricDef {
	defs := append([]metricDef(nil), endToEnd...)
	for _, d := range endToEnd {
		if d.Name == "lat_p50_ms" {
			for _, class := range clientClasses {
				defs = append(defs, metricDef{"client." + class + ".lat_p50_ms", d.Unit, d.Better, d.Bound})
			}
		}
	}
	return defs
}

// verdict judges b against a for one metric.
func verdict(def metricDef, a, b []float64) string {
	_, medA, _ := quartiles(a)
	_, medB, _ := quartiles(b)
	worse := (medB - medA) / medA
	if def.Better == higher {
		worse = (medA - medB) / medA
	}
	q1, _, q3 := quartiles(a)
	if (q3-q1)/medA > def.Bound {
		allBetter := true
		for _, x := range b {
			for _, y := range a {
				if def.Better == lower && x >= y || def.Better == higher && x <= y {
					allBetter = false
				}
			}
		}
		if !allBetter {
			return "unresolved"
		}
	}
	if worse > def.Bound {
		return "regressed"
	}
	return "ok"
}

func compareResults(a, b *resultFile) int {
	fmt.Printf("a: commit %s, %s, nproc %d, GOMAXPROCS %d, %d clients\n", a.Commit, a.GoVersion, a.NProc, a.GoMaxProcs, a.Clients)
	fmt.Printf("b: commit %s, %s, nproc %d, GOMAXPROCS %d, %d clients\n", b.Commit, b.GoVersion, b.NProc, b.GoMaxProcs, b.Clients)
	code := 0
	for _, w := range workloads {
		digests := map[string]bool{}
		failed := 0
		for _, f := range []*resultFile{a, b} {
			for _, r := range f.Runs {
				if r.Workload == w.Name {
					digests[fmt.Sprintf("seed %d seconds %g: %s", r.Seed, r.Seconds, r.Digest)] = true
					failed += r.Failed
				}
			}
		}
		if len(digests) == 0 {
			continue
		}
		fmt.Printf("== %s ==\n", w.Name)
		for _, d := range sortedKeys(digests) {
			fmt.Printf("  result_digest %s\n", d)
		}
		if failed > 0 {
			fmt.Printf("  %d failed operations: any increase of the failed share is a regression\n", failed)
			code = 1
		}
		fmt.Printf("  %-30s %-6s %38s %38s  %6s  %s\n", "metric", "unit", "a: q1 / median / q3 (n)", "b: q1 / median / q3 (n)", "bound", "verdict")
		for _, def := range judged() {
			va, vb := a.values(w.Name, def.Name), b.values(w.Name, def.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			show := func(v []float64) string {
				q1, q2, q3 := quartiles(v)
				return fmt.Sprintf("%10.5g / %10.5g / %10.5g (%d)", q1, q2, q3, len(v))
			}
			vd := verdict(def, va, vb)
			if vd == "regressed" {
				code = 1
			}
			fmt.Printf("  %-30s %-6s %38s %38s  %5.0f%%  %s\n", def.Name, def.Unit, show(va), show(vb), 100*def.Bound, vd)
		}
	}
	return code
}
