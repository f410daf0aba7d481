// Command exchsim regenerates the paper's tables and figures.
//
// Usage:
//
//	exchsim -list
//	exchsim -experiment fig4 [-quick] [-seed 7] [-parallel 8] [-replicas 5] [-v] [-perf] [-cpuprofile cpu.prof]
//	exchsim -all [-quick]
//	exchsim -workload flash [-quick] [-replicas 5]
//	exchsim -trace run.trace [-quick] [-parallel 8]
//
// -workload runs one open-loop temporal workload spec (a builtin name —
// constant, diurnal, flash, waves — or a path to a JSON spec file) instead
// of a figure. -trace replays a recorded JSON-lines trace, typically an
// exchswarm -record capture; the replayed world's shape comes from the
// trace header. Both are documented field by field in docs/WORKLOADS.md.
//
// Output is tab-separated: one column per plotted series, one row per x
// value, matching the corresponding figure of the paper. Grid points run in
// parallel over -parallel workers (default: one per CPU); output is
// byte-identical at any worker count for the same seed. -replicas N runs
// every point N times under distinct derived seeds and adds mean ± 95% CI
// columns to the swept figures.
//
// -perf appends an engine performance report to stderr after the runs:
// events/sec of wall time, ring-search traversal effort, and allocation
// load. The counts are the runs' own, summed from their results after they
// finish, so the report never perturbs the deterministic TSV output.
//
// -cpuprofile FILE writes a runtime/pprof CPU profile of the runs to FILE
// (read it with `go tool pprof -top FILE`); stdout is unaffected. It is how
// the layer table of docs/PERF.md is regenerated.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	"barter/internal/experiment"
	"barter/internal/workload"
)

// errUsage signals a flag-parsing failure whose specifics the FlagSet has
// already printed to stderr, so main need not repeat them.
var errUsage = errors.New("invalid arguments")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "exchsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("exchsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list available experiments")
		expID    = fs.String("experiment", "", "experiment to run (e.g. fig4)")
		all      = fs.Bool("all", false, "run every experiment")
		quick    = fs.Bool("quick", false, "run the scaled-down world (30 peers, 0.5 MB objects)")
		seed     = fs.Uint64("seed", 1, "random seed")
		parallel = fs.Int("parallel", 0, "worker pool size for grid points (0 = one per CPU)")
		replicas = fs.Int("replicas", 1, "replications per grid point (adds mean ± 95% CI columns)")
		verbose  = fs.Bool("v", false, "print per-run progress to stderr")
		perf     = fs.Bool("perf", false, "print an engine performance report to stderr after the runs")
		wl       = fs.String("workload", "", "run an open-loop workload spec: a builtin name or a JSON spec file")
		trace    = fs.String("trace", "", "replay a recorded JSON-lines trace file (e.g. from exchswarm -record)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the runs to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	if *list {
		for _, e := range experiment.All() {
			fmt.Fprintf(stdout, "%-20s %s\n", e.ID, e.Title)
		}
		return nil
	}

	opts := experiment.Options{
		Seed:     *seed,
		Quick:    *quick,
		Parallel: *parallel,
		Replicas: *replicas,
	}
	if *verbose {
		opts.Progress = func(msg string) { fmt.Fprintln(stderr, msg) }
	}
	var counts experiment.Counts // every report's runs, for -perf
	if *perf {
		timer := startPerf()
		defer func() { fmt.Fprint(stderr, timer.report(counts)) }()
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(stderr, "exchsim: -cpuprofile:", err)
			}
		}()
	}

	switch {
	case *wl != "" && *trace != "":
		return fmt.Errorf("-workload and -trace are mutually exclusive")
	case *wl != "":
		spec, err := workload.Load(*wl)
		if err != nil {
			return err
		}
		rep, err := experiment.WorkloadRun(spec, opts)
		if err != nil {
			return err
		}
		counts.Add(rep.Counts)
		fmt.Fprint(stdout, rep.TSV())
		return nil
	case *trace != "":
		f, err := os.Open(*trace)
		if err != nil {
			return err
		}
		tr, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			return err
		}
		rep, err := experiment.ReplayTrace(tr, opts)
		if err != nil {
			return err
		}
		counts.Add(rep.Counts)
		fmt.Fprint(stdout, rep.TSV())
		return nil
	case *all:
		for _, e := range experiment.All() {
			fmt.Fprintf(stdout, "==== %s: %s ====\n", e.ID, e.Title)
			rep, err := e.Run(opts)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			counts.Add(rep.Counts)
			fmt.Fprintln(stdout, rep.TSV())
		}
		return nil
	case *expID != "":
		e, ok := experiment.ByID(*expID)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *expID)
		}
		rep, err := e.Run(opts)
		if err != nil {
			return err
		}
		counts.Add(rep.Counts)
		fmt.Fprint(stdout, rep.TSV())
		return nil
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -list, -experiment, -all, -workload, or -trace")
	}
}
