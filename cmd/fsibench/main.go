// Command fsibench regenerates the tables and figures of "Fast Set
// Intersection in Memory" (Ding & König, VLDB 2011). Every experiment in
// the paper's evaluation has an ID here; `fsibench -list` prints each with
// the paper artifact it reproduces.
//
// Usage:
//
//	fsibench -list
//	fsibench -exp fig4                 # one experiment, small scale
//	fsibench -exp all -scale full      # the whole evaluation, paper scale
//
// The engine itself — throughput, latency, allocations, segment lifecycle
// and per-stage time — is measured by the layered benchmark in perfbench/
// (bash perfbench/run.sh). Admission control under saturation is checked by
// TestOverloadShedding in internal/admission.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fastintersect"
	"fastintersect/internal/harness"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "experiment ID to run, or 'all'")
		scale = flag.String("scale", "small", "'small' (minutes) or 'full' (paper-scale sizes)")
		reps  = flag.Int("reps", 3, "timing repetitions (minimum is reported)")
		seed  = flag.Uint64("seed", 0x5EED_F00D, "workload seed")
		list  = flag.Bool("list", false, "list experiment IDs and exit")
		algos = flag.String("algos", "", "comma-separated algorithm filter (e.g. 'Merge,RanGroupScan'); empty = each experiment's defaults")
	)
	flag.Parse()

	if *list {
		for _, e := range harness.Registry {
			fmt.Printf("%-16s %s (%s)\n", e.ID, e.Title, e.Paper)
		}
		return
	}
	cfg := harness.Config{Scale: *scale, Seed: *seed, Reps: *reps}
	if *algos != "" {
		for _, name := range strings.Split(*algos, ",") {
			a, err := fastintersect.ParseAlgorithm(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintf(os.Stderr, "fsibench: %v\n", err)
				os.Exit(2)
			}
			cfg.Algos = append(cfg.Algos, a)
		}
	}
	if cfg.Scale != "small" && cfg.Scale != "full" {
		fmt.Fprintln(os.Stderr, "fsibench: -scale must be 'small' or 'full'")
		os.Exit(2)
	}
	run := func(e harness.Experiment) {
		start := time.Now()
		tables := e.Run(cfg)
		for _, t := range tables {
			t.Print(os.Stdout)
		}
		fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *exp == "all" {
		for _, e := range harness.Registry {
			run(e)
		}
		return
	}
	e, ok := harness.Get(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "fsibench: unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
	run(e)
}
