// Workload walks the temporal-workload layer end to end through the public
// barter surface: run a builtin demand spec open-loop in the simulator,
// record a live wave swarm as a JSON-lines trace, and replay that trace
// deterministically — the same TSV at any parallelism. See docs/WORKLOADS.md
// for the spec and trace formats field by field.
package main

import (
	"bytes"
	"fmt"
	"os"

	"barter/internal/experiment"
	"barter/internal/swarm"
	"barter/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "workload:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Printf("Builtin workload specs: %v\n\n", workload.BuiltinNames())

	// 1. Open-loop simulation: the flash builtin replaces the closed-loop
	// demand model with a quiet lead-in and a flash-crowd spike.
	fmt.Println("Simulating the flash builtin (open loop, quick world):")
	spec, err := workload.Load("flash")
	if err != nil {
		return err
	}
	rep, err := experiment.WorkloadRun(spec, experiment.Options{Seed: 7, Quick: true})
	if err != nil {
		return err
	}
	fmt.Print(rep.TSV())

	// 2. Record: drive a live wave swarm from the same spec and capture
	// every hold, arrival, request, and departure as a trace.
	fmt.Println()
	fmt.Println("Recording a 40-node live wave swarm driven by the same spec:")
	var trace bytes.Buffer
	res, err := swarm.Run(swarm.Config{
		Scenario: swarm.Wave,
		Nodes:    40,
		Quick:    true,
		Seed:     7,
		Workload: spec,
		Record:   &trace,
	})
	if err != nil {
		return err
	}
	fmt.Print(res.TSV())

	// 3. Replay: re-run the recorded demand in the simulator. The replayed
	// world's shape comes from the trace header; the TSV is byte-identical
	// at any Parallel for the same trace and options.
	tr, err := workload.ReadTrace(&trace)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Printf("Replaying the recorded trace (%d events) in the simulator:\n", len(tr.Events))
	one, err := experiment.ReplayTrace(tr, experiment.Options{Seed: 7, Quick: true, Parallel: 1, Replicas: 2})
	if err != nil {
		return err
	}
	eight, err := experiment.ReplayTrace(tr, experiment.Options{Seed: 7, Quick: true, Parallel: 8, Replicas: 2})
	if err != nil {
		return err
	}
	fmt.Print(one.TSV())
	if one.TSV() != eight.TSV() {
		return fmt.Errorf("replay diverged between -parallel 1 and -parallel 8")
	}
	fmt.Println()
	fmt.Println("Replay TSV is byte-identical at parallel 1 and parallel 8.")
	return nil
}
