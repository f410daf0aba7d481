package main

import (
	"fmt"
	"time"

	"barter/internal/core"
	"barter/internal/credit"
	"barter/internal/experiment"
	"barter/internal/rng"
	"barter/internal/sim"
	"barter/internal/strategy"
)

// simPoint is one figure point of a simulator workload.
type simPoint struct {
	label string
	cfg   sim.Config
	// sharersFaster marks the points on which the paper's first claim is an
	// executable check: capacity is tight and exchanges are on, so sharers
	// must finish faster than free-riders.
	sharersFaster bool
}

// simPoints builds a simulator workload's fixed work: the same list of
// configurations for a given seed, in the same order, every time. Smoke mode
// swaps the paper-scale world for the 30-peer one.
//
// Every point draws its own world from the seed. Ring-search effort depends
// heavily on the drawn catalog and interests (nodes visited differ by ±25 %
// between seeds), so four points sharing one world would make a slice's work
// swing with the seed twice as much as four independent worlds do.
func simPoints(workload string, seed uint64, smoke bool) []simPoint {
	base := experiment.FullBase()
	if smoke {
		base = experiment.QuickBase()
		base.Duration = 5_000 // a sixth of the quick horizon keeps the race-enabled smoke test short
	}
	var pts []simPoint
	add := func(label string, ul float64, pol core.Policy, mix strategy.Mix, ranker sim.Ranker) {
		cfg := base
		cfg.Seed = rng.DeriveSeed(seed, uint64(len(pts)))
		cfg.UploadKbps = ul
		cfg.Policy = pol
		cfg.Mix = mix
		cfg.Ranker = ranker
		pts = append(pts, simPoint{
			label:         label,
			cfg:           cfg,
			sharersFaster: mix == nil && ul <= 40 && pol.SearchesExchanges(),
		})
	}
	switch workload {
	case wlRings:
		for _, ul := range []float64{60, 40} {
			for _, pol := range []core.Policy{core.PolicyN2, core.Policy2N} {
				add(fmt.Sprintf("ul=%g %s", ul, pol), ul, pol, nil, nil)
			}
		}
	case wlNoExchange:
		for _, ul := range []float64{140, 100, 60, 40} {
			add(fmt.Sprintf("ul=%g %s", ul, core.PolicyNoExchange), ul, core.PolicyNoExchange, nil, nil)
		}
	case wlCredit:
		const frac = 0.3
		mix := func(adv strategy.Strategy) strategy.Mix {
			return strategy.Mix{
				{Strategy: adv, Frac: frac},
				{Strategy: strategy.NonSharing(), Frac: frac},
				{Strategy: strategy.Sharing(), Frac: 1 - 2*frac},
			}
		}
		for _, adv := range []strategy.Strategy{strategy.AdaptiveFreerider(), strategy.Whitewasher(), strategy.PartialSharer()} {
			// Rankers are stateful, so every point gets its own.
			add("credit vs "+adv.Name, 40, core.PolicyNoExchange, mix(adv), credit.NewKaZaA(nil))
		}
		add("exchange vs "+strategy.LabelWhitewasher, 40, core.Policy2N, mix(strategy.Whitewasher()), nil)
	}
	return pts
}

// runSimSlice executes one simulator slice: set-up builds every world
// (configs + sim.New), the measured part runs them to the horizon.
func runSimSlice(a sliceArgs, tr *tracer) (*sliceResult, error) {
	res := newSliceResult(a)
	root := tr.begin("slice", 0, 0)
	pts := simPoints(a.workload, a.seed, a.smoke)
	sims := make([]*sim.Sim, len(pts))
	pointSpan := make([]int, len(pts))
	var newNs time.Duration
	for i, p := range pts {
		pointSpan[i] = tr.begin("point "+p.label, root, i+1)
		id := tr.begin("sim.New", pointSpan[i], i+1)
		t := time.Now()
		s, err := sim.New(p.cfg)
		newNs += time.Since(t)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: sim.New: %w", p.label, err)
		}
		sims[i] = s
	}
	res.SetupS = time.Since(a.start).Seconds()

	before := readMem()
	cpu0 := cpuSeconds()
	var lat []float64
	c := res.Counts
	for i, p := range pts {
		id := tr.begin("Sim.Run", pointSpan[i], i+1)
		t := time.Now()
		r, err := sims[i].Run()
		d := time.Since(t)
		tr.end(id)
		tr.end(pointSpan[i])
		sims[i] = nil
		res.Ops++
		lat = append(lat, d.Seconds()*1e3)
		res.WallS += d.Seconds()
		if err != nil {
			res.fail("%s: %v", p.label, err)
			continue
		}
		c["sim.events"] += float64(r.Events)
		c["core.searches"] += float64(r.RingSearches)
		c["core.searches."+p.cfg.Policy.String()] += float64(r.RingSearches)
		c["core.nodes_visited"] += float64(r.SearchNodesVisited)
		c["core.want_probes"] += float64(r.SearchWantsChecked)
		c["core.rings_started"] += float64(r.RingAttempts - r.RingValidationFailures)
		completed := 0
		for _, cl := range r.Classes {
			completed += cl.Completed
			c["sim.whitewashes"] += float64(cl.Whitewashes)
			c["sim.flips"] += float64(cl.Flips)
		}
		c["sim.completed_downloads"] += float64(completed)
		if completed == 0 {
			res.fail("%s: no download completed", p.label)
		}
		if p.sharersFaster {
			if sh, non := r.MeanDownloadMin(true), r.MeanDownloadMin(false); !(sh < non) {
				res.fail("%s: sharers took %.1f min, free-riders %.1f: the incentive gap is gone", p.label, sh, non)
			}
		}
		if !p.cfg.Policy.SearchesExchanges() && r.RingSearches != 0 {
			res.fail("%s: %d ring searches with exchanges off", p.label, r.RingSearches)
		}
	}
	tr.end(root)
	res.WallRawS = res.WallS
	res.setLatencies(lat)
	mem := readMem().sub(before)
	res.GCCycles, res.AllocMB = mem.gc, mem.allocMB
	res.CPUMeasuredS = cpuSeconds() - cpu0

	l := res.Layers
	for k, v := range c {
		l[k] = v
	}
	l["sim.new_ms"] = newNs.Seconds() * 1e3
	l["sim.run_ms"] = res.WallS * 1e3
	if ev := c["sim.events"]; ev > 0 {
		l["sim.ns_per_event"] = res.WallS * 1e9 / ev
		l["sim.allocs_per_event"] = mem.mallocs / ev
	}
	if s := c["core.searches"]; s > 0 {
		l["core.ring_yield"] = c["core.rings_started"] / s
	}
	return res, nil
}
