// Command bench is the repository's one benchmark: six fixed-work workloads
// run as slices in fresh child processes, in interleaved rounds, with every
// end-to-end metric reported as the median over the rounds. See README.md in
// this directory for the metric/layer/workload table and the noise study
// behind the run structure; BENCHMARK.json at the repository root restates
// the registry for the driver.
//
//	go run ./bench -seed 1                      # all workloads, 5 rounds + traced round
//	go run ./bench -workload live-plain-tcp     # one workload
//	go run ./bench -workload W -seed N -seconds S -trace 0|1   # what the driver runs
//	go run ./bench -compare A.json B.json       # regression verdicts between two runs
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// defaultRounds is R: how many times every workload's slice runs when no time
// budget is given.
const defaultRounds = 5

func main() {
	start := time.Now()
	var (
		workload = flag.String("workload", "", "run only this workload (default: all)")
		seed     = flag.Uint64("seed", 1, "seed for every generated input")
		seconds  = flag.Int("seconds", 0, "measure each workload for about this long instead of a fixed 5 rounds")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics (traced round + probes); default both")
		smoke    = flag.Bool("smoke", false, "quick world, 1 round: checks the plumbing, not the numbers")
		outDir   = flag.String("out", "bench/out", "directory for latest.json, traces and temporary files")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		slice    = flag.String("slice", "", "internal: run one slice of this workload and print its result")
		round    = flag.Int("round", 0, "internal: the slice's round")
		traced   = flag.Bool("traced", false, "internal: record spans and run the layer probes")
	)
	flag.Parse()

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
			break
		}
		var regressed bool
		regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err == nil && regressed {
			os.Exit(1)
		}
	case *slice != "":
		err = sliceMain(sliceArgs{workload: *slice, seed: *seed, round: *round, traced: *traced, smoke: *smoke, outDir: *outDir, start: start})
	default:
		var ok bool
		ok, err = runBenchmark(runOpts{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace, smoke: *smoke, outDir: *outDir})
		if err == nil && !ok {
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}
