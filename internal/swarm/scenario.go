package swarm

import (
	"fmt"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/strategy"
	"barter/internal/workload"
)

// buildWorld assigns strategy classes, places content, derives wants, and
// spawns every node for the configured scenario. All structural choices draw
// from the run's seeded RNG, and every class assignment is a
// strategy.Strategy — the same definitions internal/sim consumes.
func (s *swarmRun) buildWorld() error {
	switch s.cfg.Scenario {
	case FlashCrowd:
		s.buildFlashCrowd(strategy.Sharing(), 0)
	case Cheater, Medfail:
		// Medfail is the cheater world run over the mediated block path;
		// spawn wires each node to the mediator tier.
		s.buildFlashCrowd(strategy.Corrupt(), s.cfg.CorruptFrac)
	case Mixed, Churn:
		s.buildMixed()
	case Freerider:
		s.buildFreerider()
	case Adversary:
		s.buildAdversary()
	case Wave:
		if err := s.buildWave(); err != nil {
			return err
		}
	}
	for _, p := range s.peers {
		if err := s.spawn(p); err != nil {
			return err
		}
	}
	return nil
}

// buildFlashCrowd: one object, a handful of seed holders, everyone else
// downloads it simultaneously. badFrac of the seeds get badStrat (the
// cheater scenario corrupts them; flashcrowd passes zero). Downloaders'
// provider sets hold every seed plus a few fellow downloaders, so completed
// sharers spread the object epidemically.
func (s *swarmRun) buildFlashCrowd(badStrat strategy.Strategy, badFrac float64) {
	const obj = catalog.ObjectID(1)
	seeds := max(2, s.cfg.Nodes/30)
	bad := 0
	if badFrac > 0 {
		// At least one corrupt seed so the scenario means something, and at
		// least one honest seed so downloads can complete at all.
		bad = min(max(1, int(float64(seeds)*badFrac)), seeds-1)
	}
	for i := 0; i < s.cfg.Nodes; i++ {
		p := &peerState{id: core.PeerID(i + 1), strat: strategy.Sharing()}
		if i < seeds {
			if i < bad {
				p.strat = badStrat
			}
			p.holds = []catalog.ObjectID{obj}
		}
		s.peers = append(s.peers, p)
	}
	seedIDs := make([]core.PeerID, seeds)
	for i := range seedIDs {
		seedIDs[i] = s.peers[i].id
	}
	for _, p := range s.peers[seeds:] {
		providers := append([]core.PeerID(nil), seedIDs...)
		// A few fellow downloaders: they hold nothing yet, but the retry
		// path finds them once they complete.
		for _, j := range s.rng.Perm(s.cfg.Nodes - seeds)[:min(s.cfg.ProvidersPerWant, s.cfg.Nodes-seeds)] {
			other := s.peers[seeds+j]
			if other.id != p.id {
				providers = append(providers, other.id)
			}
		}
		p.wants = []*wantState{{obj: obj, providers: providers}}
	}
}

// buildMixed: every object starts at one sharer (round-robin); every node
// wants WantsPerNode objects it does not hold, from the holder plus a few
// random peers.
func (s *swarmRun) buildMixed() {
	holder := make(map[catalog.ObjectID]core.PeerID, s.cfg.Objects)
	for i := 0; i < s.cfg.Nodes; i++ {
		p := &peerState{id: core.PeerID(i + 1), strat: strategy.Sharing()}
		if s.cfg.FreeriderFrac > 0 && s.rng.Float64() < s.cfg.FreeriderFrac {
			p.strat = strategy.NonSharing()
		}
		s.peers = append(s.peers, p)
	}
	sharers := make([]*peerState, 0, len(s.peers))
	for _, p := range s.peers {
		if p.strat.Share {
			sharers = append(sharers, p)
		}
	}
	if len(sharers) == 0 {
		// A high FreeriderFrac can randomly leave nobody to hold content;
		// the world needs at least one holder to mean anything.
		s.peers[0].strat = strategy.Sharing()
		sharers = append(sharers, s.peers[0])
	}
	for o := 1; o <= s.cfg.Objects; o++ {
		obj := catalog.ObjectID(o)
		p := sharers[(o-1)%len(sharers)]
		p.holds = append(p.holds, obj)
		holder[obj] = p.id
	}
	for _, p := range s.peers {
		held := make(map[catalog.ObjectID]bool, len(p.holds))
		for _, o := range p.holds {
			held[o] = true
		}
		for _, oi := range s.rng.Perm(s.cfg.Objects) {
			if len(p.wants) >= s.cfg.WantsPerNode {
				break
			}
			obj := catalog.ObjectID(oi + 1)
			if held[obj] {
				continue
			}
			providers := []core.PeerID{holder[obj]}
			for _, j := range s.rng.Perm(s.cfg.Nodes)[:min(s.cfg.ProvidersPerWant, s.cfg.Nodes)] {
				other := s.peers[j]
				if other.id != p.id && other.id != holder[obj] {
					providers = append(providers, other.id)
				}
			}
			p.wants = append(p.wants, &wantState{obj: obj, providers: providers})
		}
	}
}

// pairBlock appends one block of peers running strat: each holds its own
// object and wants its partner's (peer 2k and 2k+1 exchange), the live
// network's pairwise exchange substrate. Objects are numbered from
// firstObj; ids from firstID. It returns the next free id/object numbers.
func (s *swarmRun) pairBlock(strat strategy.Strategy, count, firstID, firstObj int) (nextID, nextObj int) {
	start := len(s.peers)
	for i := 0; i < count; i++ {
		obj := catalog.ObjectID(firstObj + i)
		p := &peerState{
			id:    core.PeerID(firstID + i),
			strat: strat,
			holds: []catalog.ObjectID{obj},
		}
		s.peers = append(s.peers, p)
	}
	for i := 0; i < count; i++ {
		partner := i ^ 1 // 0<->1, 2<->3, ...
		s.peers[start+i].wants = []*wantState{{
			obj:       catalog.ObjectID(firstObj + partner),
			providers: []core.PeerID{s.peers[start+partner].id},
		}}
	}
	return firstID + count, firstObj + count
}

// buildFreerider: sharers hold one object each and are paired into mutual
// wants — the live network's pairwise exchange substrate — while
// FreeriderFrac of the population holds nothing and wants random sharer
// objects. With scarce, paced upload slots the sharing class completes
// through exchange priority; the non-sharing class waits for spare
// capacity. This is the live qualitative check of the simulator's Fig. 12.
func (s *swarmRun) buildFreerider() {
	riders := int(float64(s.cfg.Nodes) * s.cfg.FreeriderFrac)
	sharers := s.cfg.Nodes - riders
	if sharers%2 == 1 { // pairing needs an even sharer count
		sharers--
		riders++
	}
	if sharers < 2 {
		// A high fraction at a small population can round the sharing class
		// away entirely; the scenario needs at least one exchange pair or
		// the run measures nothing.
		sharers = 2
		riders = s.cfg.Nodes - 2
	}
	// One object per sharer; sharer 2k and 2k+1 want each other's object.
	s.cfg.Objects = sharers
	nextID, _ := s.pairBlock(strategy.Sharing(), sharers, 1, 1)
	for i := 0; i < riders; i++ {
		p := &peerState{id: core.PeerID(nextID + i), strat: strategy.NonSharing()}
		s.addSharerBlockWants(p, sharers)
		s.peers = append(s.peers, p)
	}
	s.topUpOracle()
}

// addSharerBlockWants gives a content-less leech its wants over the paired
// sharer block (objects 1..sharers held by s.peers[0..sharers-1]). Each
// want lists both the holder and its partner: the partner will hold the
// object too once their exchange completes.
func (s *swarmRun) addSharerBlockWants(p *peerState, sharers int) {
	wants := min(s.cfg.WantsPerNode, sharers)
	for _, oi := range s.rng.Perm(sharers)[:wants] {
		p.wants = append(p.wants, &wantState{
			obj:       catalog.ObjectID(oi + 1),
			providers: []core.PeerID{s.peers[oi].id, s.peers[oi^1].id},
		})
	}
}

// buildAdversary extends the freerider substrate with the strategic classes
// of internal/strategy: sharers, partial sharers, and adaptive free-riders
// each form mutual-want pairs within their class (partial pairs exchange
// through throttled slots; adaptive pairs deadlock until starvation flips
// them to contributing), while whitewashers and static free-riders hold
// nothing and want sharer-held objects. Whitewashers additionally target one
// adaptive-held object when available — a want that cannot complete before
// the adaptive class flips, guaranteeing the identity churn has something to
// launder.
func (s *swarmRun) buildAdversary() {
	counts := strategy.Mix{
		{Strategy: strategy.AdaptiveFreerider(), Frac: s.cfg.AdaptiveFrac},
		{Strategy: strategy.Whitewasher(), Frac: s.cfg.WhitewashFrac},
		{Strategy: strategy.PartialSharer(), Frac: s.cfg.PartialFrac},
		{Strategy: strategy.NonSharing(), Frac: s.cfg.FreeriderFrac},
		{Strategy: strategy.Sharing(), Frac: 1 - s.cfg.AdaptiveFrac - s.cfg.WhitewashFrac - s.cfg.PartialFrac - s.cfg.FreeriderFrac},
	}.Counts(s.cfg.Nodes)
	adaptive, whitewashers, partials, riders, sharers := counts[0], counts[1], counts[2], counts[3], counts[4]
	// Paired classes need even counts; remainders become plain riders.
	for _, c := range []*int{&adaptive, &partials, &sharers} {
		if *c%2 == 1 {
			*c--
			riders++
		}
	}
	if sharers < 2 {
		// Keep at least one true exchange pair so the scenario's sharer
		// baseline (and the whitewashers' provider set) exists. The two
		// converted peers must come out of the other classes — the
		// population stays at exactly cfg.Nodes, or initial ids would
		// collide with the fresh identities whitewashers respawn under.
		switch {
		case riders+whitewashers >= 2:
			for i := 0; i < 2; i++ {
				if riders > 0 {
					riders--
				} else {
					whitewashers--
				}
			}
		case adaptive >= 2:
			adaptive -= 2
		default:
			partials -= 2 // Nodes >= 4 guarantees some class has a pair
		}
		sharers = 2
	}

	nextID, nextObj := 1, 1
	nextID, nextObj = s.pairBlock(strategy.Sharing(), sharers, nextID, nextObj)
	nextID, nextObj = s.pairBlock(strategy.PartialSharer(), partials, nextID, nextObj)
	firstAdaptiveObj := nextObj
	nextID, nextObj = s.pairBlock(strategy.AdaptiveFreerider(), adaptive, nextID, nextObj)
	s.cfg.Objects = nextObj - 1

	// Whitewashers and riders: no content, wants over the sharer block (and
	// for whitewashers, one adaptive-held object first when there is one).
	addLeech := func(strat strategy.Strategy) {
		p := &peerState{id: core.PeerID(nextID), strat: strat}
		nextID++
		if strat.Whitewash && adaptive > 0 {
			oi := s.rng.Intn(adaptive)
			obj := catalog.ObjectID(firstAdaptiveObj + oi)
			holderIdx := sharers + partials + oi
			p.wants = append(p.wants, &wantState{
				obj:       obj,
				providers: []core.PeerID{s.peers[holderIdx].id},
			})
		}
		s.addSharerBlockWants(p, sharers)
		s.peers = append(s.peers, p)
	}
	for i := 0; i < whitewashers; i++ {
		addLeech(strategy.Whitewasher())
	}
	for i := 0; i < riders; i++ {
		addLeech(strategy.NonSharing())
	}
	s.topUpOracle()
}

// buildWave: a few seed holders carry the catalog round-robin, and every
// other peer's wants come from the workload spec compiled over WaveWindow —
// the live counterpart of sim.Config.Workload. Each downloader's arrival
// times and object draws use its private schedule stream, so the same
// (spec, window, population, objects, seed) tuple always yields the same
// want structure; only wall-clock service times vary run to run. Repeated
// draws of an object a peer already wants collapse into the one want (a live
// node downloads an object once), and cohort members get their session
// edges: wants only inside the window, plus a departure the monitors enforce
// by closing the node.
func (s *swarmRun) buildWave() error {
	spec := s.cfg.Workload
	if spec == nil {
		// The default live wave: the flash-crowd builtin, re-anchored so one
		// downloader expects about WantsPerNode requests over the window
		// (the builtins' anchor suits hours-long simulations, not a
		// seconds-long swarm).
		spec, _ = workload.Builtin("flash")
		spec.RequestsPerPeer = float64(s.cfg.WantsPerNode)
	}
	seeds := max(2, s.cfg.Nodes/20)
	downloaders := s.cfg.Nodes - seeds
	window := s.cfg.WaveWindow.Seconds()
	sched, err := spec.Compile(window, downloaders, s.cfg.Objects, s.cfg.Seed)
	if err != nil {
		return fmt.Errorf("swarm: wave workload: %w", err)
	}
	for i := 0; i < seeds; i++ {
		p := &peerState{id: core.PeerID(i + 1), strat: strategy.Sharing()}
		for o := i + 1; o <= s.cfg.Objects; o += seeds {
			p.holds = append(p.holds, catalog.ObjectID(o))
		}
		s.peers = append(s.peers, p)
	}
	for d := 0; d < downloaders; d++ {
		p := &peerState{id: core.PeerID(seeds + d + 1), strat: strategy.Sharing()}
		arrive, depart := sched.Session(d)
		st := sched.PeerStream(d)
		seen := make(map[catalog.ObjectID]bool)
		for t := sched.NextArrival(arrive, st); t < depart; t = sched.NextArrival(t, st) {
			// Schedule objects are 0-based; swarm objects are 1-based.
			obj := catalog.ObjectID(sched.SampleObject(t, st) + 1)
			if seen[obj] {
				continue
			}
			seen[obj] = true
			// The owning seed always provides; a few fellow downloaders join
			// the set so completed sharers spread the object epidemically.
			providers := []core.PeerID{s.peers[(int(obj)-1)%seeds].id}
			for _, j := range s.rng.Perm(downloaders)[:min(s.cfg.ProvidersPerWant, downloaders)] {
				if other := core.PeerID(seeds + j + 1); other != p.id {
					providers = append(providers, other)
				}
			}
			p.wants = append(p.wants, &wantState{
				obj:       obj,
				providers: providers,
				startAt:   time.Duration(t * float64(time.Second)),
			})
		}
		if arrive > 0 && s.rec != nil {
			// The cohort's session start is part of the recorded demand shape
			// even though the live node simply idles until its first want.
			s.rec.Arrive(arrive, int(p.id))
		}
		if depart < window {
			p.departAt = time.Duration(depart * float64(time.Second))
		}
		s.peers = append(s.peers, p)
	}
	return nil
}

// topUpOracle makes sure every object in play has digests: scenario builders
// finalize cfg.Objects after the initial oracle sizing.
func (s *swarmRun) topUpOracle() {
	for o := 1; o <= s.cfg.Objects; o++ {
		obj := catalog.ObjectID(o)
		if _, ok := s.oracle[obj]; !ok {
			s.oracle[obj] = blockDigests(objData(obj, s.cfg.ObjectSize), s.cfg.BlockSize)
		}
	}
}

// describe names the world for progress logs.
func (s *swarmRun) describe() string {
	classes := make(map[string]int)
	for _, p := range s.peers {
		classes[p.class()]++
	}
	return fmt.Sprintf("%s: %d nodes %v, %d objects", s.cfg.Scenario, len(s.peers), classes, s.cfg.Objects)
}
