// Creditcompare runs the incentive-mechanism shoot-out of the paper's
// related-work discussion (Section II) on one common workload: exchange
// priority versus plain FIFO, the eMule pairwise-credit queue rank, and the
// KaZaA self-reported participation level with free-riders running the
// well-known level hack. The output is the per-mechanism speedup of sharing
// users over free-riders.
package main

import (
	"fmt"
	"os"

	"barter/internal/experiment"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "creditcompare:", err)
		os.Exit(1)
	}
}

func run() error {
	exp, ok := experiment.ByID("ablation-credit")
	if !ok {
		return fmt.Errorf("ablation-credit experiment not registered")
	}
	fmt.Println(exp.Title)
	fmt.Println(exp.Description)
	fmt.Println()
	rep, err := exp.Run(experiment.Options{
		Seed:  1,
		Quick: true,
		Progress: func(msg string) {
			fmt.Println("  " + msg)
		},
	})
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Println(rep.TSV())
	fmt.Println("Reading: >1 means sharers are served faster than free-riders.")
	fmt.Println("Exchanges discriminate strongly; cheated self-reports do not.")
	return nil
}
