// Quickstart: run one scaled-down simulation under the 2-5-way exchange
// policy and print the headline result of the paper — sharing users download
// significantly faster than free-riders, while the no-exchange baseline
// treats both classes alike.
package main

import (
	"fmt"
	"os"

	"barter/internal/core"
	"barter/internal/experiment"
	"barter/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := experiment.QuickBase()
	cfg.UploadKbps = 40 // a loaded system, where incentives matter

	for _, policy := range []core.Policy{core.Policy2N, core.PolicyNoExchange} {
		cfg.Policy = policy
		s, err := sim.New(cfg)
		if err != nil {
			return err
		}
		res, err := s.Run()
		if err != nil {
			return err
		}
		fmt.Printf("policy %-12s  sharing %6.1f min   non-sharing %6.1f min   speedup %.2fx   exchange fraction %.2f\n",
			res.Policy,
			res.MeanDownloadMin(true),
			res.MeanDownloadMin(false),
			res.SpeedupSharingVsNonSharing(),
			res.ExchangeFraction)
	}
	fmt.Println("\nSharing pays under the exchange policy; the baseline is indifferent.")
	return nil
}
