// Command experiments regenerates the evaluation: every table and figure, in
// thesis order, or the named sections of it.
//
//	experiments [-full] [section ...]
//
// The sections are model (Chapter 3), rates (Chapter 4), barriers (Chapters 5
// and 6), adapt (Chapter 7), collectives, scaling, faults and stencil
// (Chapter 8); naming one that does not exist prints the list. Use -full for
// the complete sweeps (minutes) or the default quick mode for a fast sanity
// pass (seconds).
package main

import (
	"flag"
	"log"
	"os"

	"hbsp/experiments"
)

func main() {
	log.SetFlags(0)
	full := flag.Bool("full", false, "run the full sweeps instead of the quick ones")
	flag.Parse()

	opts := experiments.Quick()
	if *full {
		opts = experiments.Full()
	}
	if err := experiments.RunSections(os.Stdout, opts, flag.Args()...); err != nil {
		log.Fatalf("experiments: %v", err)
	}
}
