package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// reportOptions are sweeps small enough to print the whole report in a
// fraction of a second (the sizes of the benchmark's smoke run).
func reportOptions() Options {
	o := Quick()
	o.Reps, o.MaxProcsXeon, o.MaxProcsOpteron = 1, 16, 24
	o.StencilLargeN, o.StencilSmallN, o.StencilIterations = 96, 48, 1
	o.CollapseProcs = []int{256, 4096}
	return o
}

// TestReportGolden pins the evaluation report — every table cmd/experiments
// prints, digit for digit — and the section selection around it: the sections
// printed one by one are the report, the order printed is thesis order
// whatever the order asked for, and an unknown name is refused by naming the
// sections that exist.
func TestReportGolden(t *testing.T) {
	opts := reportOptions()
	var all bytes.Buffer
	if err := RunSections(&all, opts); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/experiments -run %s -update`): %v", t.Name(), err)
	}
	if !bytes.Equal(want, all.Bytes()) {
		t.Fatalf("report diverged from %s — inspect the diff and, if the change is intended, regenerate with -update\n%s",
			path, firstDifference(string(want), all.String()))
	}

	parts := map[string]string{}
	var joined strings.Builder
	for _, s := range sections {
		var buf bytes.Buffer
		if err := RunSections(&buf, opts, s.name); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatalf("section %s printed nothing", s.name)
		}
		parts[s.name] = buf.String()
		joined.WriteString(buf.String())
	}
	if joined.String() != all.String() {
		t.Fatalf("the sections one by one do not concatenate to the whole report\n%s", firstDifference(all.String(), joined.String()))
	}

	var swapped bytes.Buffer
	if err := RunSections(&swapped, opts, "stencil", "model", "stencil"); err != nil {
		t.Fatal(err)
	}
	if swapped.String() != parts["model"]+parts["stencil"] {
		t.Fatalf("sections asked for as (stencil, model, stencil) were not printed as model then stencil, once each")
	}

	var none bytes.Buffer
	err = RunSections(&none, opts, "model", "barrierz")
	if err == nil || none.Len() != 0 {
		t.Fatalf("unknown section: err = %v with %d bytes printed, want an error before any output", err, none.Len())
	}
	for _, s := range sections {
		if !strings.Contains(err.Error(), s.name) {
			t.Errorf("unknown-section error %q does not name section %s", err, s.name)
		}
	}
	if !strings.Contains(err.Error(), `"barrierz"`) {
		t.Errorf("unknown-section error %q does not quote the name it refused", err)
	}
}

// TestStencilFullGolden pins the Chapter 8 section at the Full settings
// (`cmd/experiments -full stencil`): the N = 1536 rows and P up to 64, which
// the small options of TestReportGolden never reach.
func TestStencilFullGolden(t *testing.T) {
	var got bytes.Buffer
	if err := RunSections(&got, Full(), "stencil"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "stencil_full.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/experiments -run %s -update`): %v", t.Name(), err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Fatalf("full stencil section diverged from %s\n%s", path, firstDifference(string(want), got.String()))
	}
}

// firstDifference renders the first line at which two reports differ.
func firstDifference(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl, gl)
		}
	}
	return "no difference"
}
