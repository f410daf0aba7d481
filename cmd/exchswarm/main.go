// Command exchswarm runs a live-network swarm scenario: hundreds of real
// peers (plus a trusted mediator) over the in-memory transport or TCP
// loopback, driven by a declarative workload, reporting the same
// figure-shaped TSV the simulator emits so live and simulated results sit
// side by side.
//
// Usage:
//
//	exchswarm -list
//	exchswarm -scenario flashcrowd -nodes 300 -quick
//	exchswarm -scenario freerider -nodes 100 -frac 0.3 -quick
//	exchswarm -scenario churn -nodes 120 -restarts 100 -quick -v
//	exchswarm -scenario mixed -nodes 50 -tcp -peers
//	exchswarm -scenario adversary -nodes 80 -adaptive 0.2 -whitewash 0.1 -partial 0.2 -quick
//	exchswarm -scenario cheater -nodes 120 -mediators 4 -quick
//	exchswarm -scenario cheater -nodes 80 -mediators 4 -stripe 3 -quick
//	exchswarm -scenario medfail -nodes 80 -mediators 4 -medkills 6 -quick -v
//	exchswarm -scenario medfail -nodes 80 -mediators 4 -meddata /tmp/medwal -quick -v
//	exchswarm -scenario wave -nodes 60 -workload flash -quick -record run.trace
//
// The wave scenario schedules downloader demand from a temporal workload
// spec (-workload: a builtin name or a JSON spec file; see docs/WORKLOADS.md)
// compiled over the -window wall-clock horizon: request times follow the
// spec's demand curve, objects its popularity model, and cohort peers
// arrive late or depart early as live session churn. -record writes any
// scenario's run as a replayable JSON-lines trace that
// `exchsim -trace <file>` re-executes deterministically in the simulator.
//
// -mediators shards the mediator tier (consistent hashing over object id)
// for any scenario; medfail additionally kills and restarts shards mid-run
// while nodes speak the mediated block path natively. -stripe N stripes
// each download across up to N origins on the scenario's own block path:
// plain lanes, each checked block by block against the object's digests, or
// on medfail interleaved sealed blocks with per-origin escrow and audits.
// -meddata DIR gives every shard a write-ahead log
// under DIR; medfail then also checks that no shard restart — nor a final
// restart of the whole tier from its logs — forgets a flagged cheater.
//
// The exit status is the run's verdict: nonzero when a download failed, a
// cheater went unflagged, a flag was lost, or an honest peer was flagged.
//
// The aggregate TSV mirrors Figure 12's axes (mean download time per peer
// class vs. fraction of non-sharing peers: -frac on every scenario, plus
// the adversary scenario's strategic classes); -peers appends one row per
// node with its protocol counters. Peer classes are the shared strategy
// layer's (internal/strategy), so the live series names match exchsim's
// figures.
// -seed makes the world structure (class assignment, placement, wants)
// reproducible; wall-clock timing still varies run to run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"barter/internal/swarm"
	"barter/internal/workload"
)

// errUsage signals a flag-parsing failure whose specifics the FlagSet has
// already printed to stderr.
var errUsage = errors.New("invalid arguments")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "exchswarm:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("exchswarm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list available scenarios")
		scenario = fs.String("scenario", "", "scenario to run (see -list)")
		nodes    = fs.Int("nodes", 100, "number of live peers")
		quick    = fs.Bool("quick", false, "small objects and pacing: a run takes seconds")
		seed     = fs.Uint64("seed", 1, "seed for placement, wants, and churn choices")
		useTCP   = fs.Bool("tcp", false, "TCP loopback (with I/O deadlines) instead of the in-memory transport")
		frac     = fs.Float64("frac", 0, "fraction of non-sharing peers (every scenario)")
		corrupt  = fs.Float64("corrupt", 0, "fraction of corrupt seeds (cheater scenario)")
		adaptive = fs.Float64("adaptive", 0, "fraction of adaptive free-riders (adversary scenario)")
		wwash    = fs.Float64("whitewash", 0, "fraction of whitewashers (adversary scenario)")
		partial  = fs.Float64("partial", 0, "fraction of partial sharers (adversary scenario)")
		restarts = fs.Int("restarts", 0, "node restarts mid-run (churn scenario)")
		medshard = fs.Int("mediators", 0, "mediator tier size in shards (0 = scenario default)")
		medkills = fs.Int("medkills", 0, "mediator shard kill/restart cycles (medfail scenario)")
		meddata  = fs.String("meddata", "", "mediator write-ahead-log directory (empty = in-memory shards); with it medfail also asserts no restart loses a flag")
		stripe   = fs.Int("stripe", 0, "stripe downloads across up to N origins (0/1 = single origin)")
		objSize  = fs.Int("objsize", 0, "object size in bytes (0 = scenario default)")
		block    = fs.Int("block", 0, "block size in bytes (0 = scenario default)")
		slots    = fs.Int("slots", 0, "upload slots per sharer (0 = scenario default)")
		timeout  = fs.Duration("timeout", 0, "run deadline (0 = scenario default)")
		peers    = fs.Bool("peers", false, "append one TSV row per peer with protocol counters")
		verbose  = fs.Bool("v", false, "log swarm progress to stderr")
		wl       = fs.String("workload", "", "wave scenario demand spec: a builtin name or a JSON spec file")
		window   = fs.Duration("window", 0, "wave scenario wall-clock horizon (0 = scenario default)")
		record   = fs.String("record", "", "write the run as a replayable JSON-lines trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}

	if *list {
		for _, sc := range swarm.Scenarios() {
			fmt.Fprintln(stdout, sc)
		}
		return nil
	}
	if *scenario == "" {
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -list or -scenario")
	}

	cfg := swarm.Config{
		Scenario:      swarm.Scenario(*scenario),
		Nodes:         *nodes,
		Quick:         *quick,
		Seed:          *seed,
		TCP:           *useTCP,
		FreeriderFrac: *frac,
		CorruptFrac:   *corrupt,
		AdaptiveFrac:  *adaptive,
		WhitewashFrac: *wwash,
		PartialFrac:   *partial,
		Restarts:      *restarts,
		Mediators:     *medshard,
		MedKills:      *medkills,
		MedDataDir:    *meddata,
		Stripe:        *stripe,
		ObjectSize:    *objSize,
		BlockSize:     *block,
		UploadSlots:   *slots,
		Timeout:       *timeout,
		WaveWindow:    *window,
	}
	if *wl != "" {
		spec, err := workload.Load(*wl)
		if err != nil {
			return err
		}
		cfg.Workload = spec
	}
	var recFile *os.File
	if *record != "" {
		f, err := os.Create(*record)
		if err != nil {
			return err
		}
		recFile = f
		cfg.Record = f
	}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(stderr, "swarm: "+format+"\n", args...)
		}
	}

	start := time.Now()
	res, err := swarm.Run(cfg)
	if recFile != nil {
		// The trace was (or failed to be) written by Run; surface close
		// errors so a truncated recording never passes silently.
		if cerr := recFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, res.TSV())
	if *peers {
		fmt.Fprint(stdout, res.PeersTSV())
	}
	if *verbose {
		fmt.Fprintf(stderr, "swarm: %s with %d nodes finished in %s (wall %s)\n",
			res.Scenario, res.Nodes, res.Elapsed.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	}
	return res.Err()
}
