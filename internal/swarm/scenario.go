package swarm

import (
	"fmt"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/strategy"
	"barter/internal/workload"
)

// scenarioDef is one row of the scenario table: the scenario's world
// builder, the defaults it gives Config's zero fields, and the harness
// switches it turns. Every per-scenario decision in the package reads a row.
type scenarioDef struct {
	name Scenario
	// build assigns classes, places content, derives wants and sets the
	// catalog size, drawing only from the run's seeded RNG.
	build func(s *swarmRun) error
	// slots is a sharer's default upload-slot count; paced spaces every
	// upload's blocks 1 ms apart.
	slots int
	paced bool
	// The default class fractions; adversaryFrac is each strategic class's
	// (adaptive, whitewasher, partial) when Config sets none of them. A row
	// with no corrupt class ignores Config.CorruptFrac.
	freeriderFrac, corruptFrac, adversaryFrac float64
	// mediators is the default tier size (zero: one shard). kills and
	// restarts (quickRestarts under Quick) are the default counts of shard
	// kill and node restart cycles; zero means the scenario plays none.
	mediators, kills, restarts, quickRestarts int
	// window is the default horizon of a temporal demand spec (a third of
	// it under Quick); zero means the scenario takes no spec.
	window time.Duration
	// mediated runs every node on the mediated block path; trusted hands
	// nodes the digest oracle, so they reject junk on arrival.
	mediated, trusted bool
}

// scenarios is the scenario table, in presentation order.
var scenarios = []scenarioDef{
	// flashcrowd: one object, a few seed holders, everyone else downloads it
	// at once; completed sharers join the provider set (epidemic spread).
	{name: FlashCrowd, build: (*swarmRun).buildFlashCrowd, slots: 4},
	// mixed: a steady workload — many objects spread across the population,
	// every node wants a few it lacks.
	{name: Mixed, build: (*swarmRun).buildMixed, slots: 4},
	// freerider: sharers hold content and form mutual-want pairs (live
	// exchange rings); a fraction of peers contributes nothing. Scarce paced
	// slots give ring negotiation time to preempt, as in the paper's
	// fixed-rate transfer model, and the output mirrors Figure 12: mean
	// completion time for the "sharing" vs "non-sharing" class.
	{name: Freerider, build: (*swarmRun).buildFreerider, slots: 1, paced: true, freeriderFrac: 0.3},
	// cheater: a fraction of the flash crowd's seeds serve junk; receivers
	// validate every block and complete from honest holders, and the
	// mediator audits each cheater's output, flagging them all.
	{name: Cheater, build: (*swarmRun).buildFlashCrowd, slots: 4, corruptFrac: 0.3, trusted: true},
	// churn: the mixed workload while nodes are closed and restarted mid-run,
	// hundreds of times; every shutdown path in node, transport, and
	// mediator is exercised under load.
	{name: Churn, build: (*swarmRun).buildMixed, slots: 4, restarts: 200, quickRestarts: 60},
	// adversary: the freerider pairing substrate plus the strategic classes
	// of internal/strategy — adaptive free-riders that start contributing
	// once starved, whitewashers that periodically rejoin under fresh
	// identities, and partial sharers with throttled upload slots (two
	// slots leave them headroom) — each reported as its own live/<class>
	// series.
	{name: Adversary, build: (*swarmRun).buildAdversary, slots: 2, paced: true, adversaryFrac: 0.15},
	// medfail: the cheater world with every node speaking the mediated block
	// path natively (sealed blocks, escrowed keys, end-of-transfer audits via
	// internal/medclient) while shards of a 4-shard tier are killed and
	// restarted mid-run, paced so kills land while blocks are in flight;
	// cheater detection must still converge. Over a durable tier
	// (Config.MedDataDir) no restart — nor a final restart of the whole
	// tier from its logs alone — may forget a flagged cheater.
	{name: Medfail, build: (*swarmRun).buildFlashCrowd, slots: 4, paced: true, corruptFrac: 0.3, mediators: 4, kills: 6, mediated: true},
	// wave: the temporal workload scenario — a few seeds hold the catalog
	// while everyone else's demand is scheduled by a workload.Spec (see
	// internal/workload) compiled over Config.WaveWindow: request times
	// follow the spec's demand curve, objects its popularity model, and
	// cohort peers arrive late or depart early as live session churn. The
	// same spec drives sim.Config.Workload, so live and simulated runs share
	// one demand definition.
	{name: Wave, build: (*swarmRun).buildWave, slots: 4, window: 6 * time.Second},
}

// lookup returns the named scenario's table row, or nil.
func lookup(name Scenario) *scenarioDef {
	for i := range scenarios {
		if scenarios[i].name == name {
			return &scenarios[i]
		}
	}
	return nil
}

// catalogFor sizes a catalog spread across the population.
func catalogFor(nodes int) int { return max(4, nodes/8) }

// buildFlashCrowd seeds one object at a few holders, CorruptFrac of them
// corrupt, and has every other peer want it from every seed plus a few
// fellow downloaders.
func (s *swarmRun) buildFlashCrowd() error {
	const obj = catalog.ObjectID(1)
	s.objects = 1
	seeds := max(2, s.cfg.Nodes/30)
	bad := 0
	if s.cfg.CorruptFrac > 0 {
		// At least one corrupt seed so the scenario means something, and at
		// least one honest seed so downloads can complete at all.
		bad = min(max(1, int(float64(seeds)*s.cfg.CorruptFrac)), seeds-1)
	}
	for i := 0; i < s.cfg.Nodes; i++ {
		p := &peerState{id: core.PeerID(i + 1), strat: strategy.Sharing()}
		if i < seeds {
			if i < bad {
				p.strat = strategy.Corrupt()
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
		for _, j := range s.rng.Perm(s.cfg.Nodes - seeds)[:min(providersPerWant, s.cfg.Nodes-seeds)] {
			other := s.peers[seeds+j]
			if other.id != p.id {
				providers = append(providers, other.id)
			}
		}
		p.wants = []*wantState{{obj: obj, providers: providers}}
	}
	return nil
}

// buildMixed: every object starts at one sharer (round-robin); every node
// wants two objects it does not hold, from the holder plus a few random
// peers.
func (s *swarmRun) buildMixed() error {
	s.objects = catalogFor(s.cfg.Nodes)
	holder := make(map[catalog.ObjectID]core.PeerID, s.objects)
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
	for o := 1; o <= s.objects; o++ {
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
		for _, oi := range s.rng.Perm(s.objects) {
			if len(p.wants) >= wantsPerNode {
				break
			}
			obj := catalog.ObjectID(oi + 1)
			if held[obj] {
				continue
			}
			providers := []core.PeerID{holder[obj]}
			for _, j := range s.rng.Perm(s.cfg.Nodes)[:min(providersPerWant, s.cfg.Nodes)] {
				other := s.peers[j]
				if other.id != p.id && other.id != holder[obj] {
					providers = append(providers, other.id)
				}
			}
			p.wants = append(p.wants, &wantState{obj: obj, providers: providers})
		}
	}
	return nil
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

// buildFreerider pairs the sharers' objects into mutual wants, and
// FreeriderFrac of the population holds nothing and wants sharer objects.
func (s *swarmRun) buildFreerider() error {
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
	s.objects = sharers
	nextID, _ := s.pairBlock(strategy.Sharing(), sharers, 1, 1)
	for i := 0; i < riders; i++ {
		p := &peerState{id: core.PeerID(nextID + i), strat: strategy.NonSharing()}
		s.addSharerBlockWants(p, sharers)
		s.peers = append(s.peers, p)
	}
	return nil
}

// addSharerBlockWants gives a content-less leech its wants over the paired
// sharer block (objects 1..sharers held by s.peers[0..sharers-1]). Each
// want lists both the holder and its partner: the partner will hold the
// object too once their exchange completes.
func (s *swarmRun) addSharerBlockWants(p *peerState, sharers int) {
	wants := min(wantsPerNode, sharers)
	for _, oi := range s.rng.Perm(sharers)[:wants] {
		p.wants = append(p.wants, &wantState{
			obj:       catalog.ObjectID(oi + 1),
			providers: []core.PeerID{s.peers[oi].id, s.peers[oi^1].id},
		})
	}
}

// buildAdversary pairs sharers, partial sharers and adaptive free-riders
// within their class (adaptive pairs deadlock until starvation flips them),
// while whitewashers and static free-riders hold nothing and want
// sharer-held objects. Whitewashers first want one adaptive-held object when
// there is one: it cannot complete before the adaptive class flips, so the
// identity churn always has something to launder.
func (s *swarmRun) buildAdversary() error {
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
	s.objects = nextObj - 1

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
	return nil
}

// buildWave: a few seed holders carry the catalog round-robin. Each
// downloader's arrival times and object draws use its private schedule
// stream, so the same (spec, window, population, objects, seed) tuple always
// yields the same want structure. Repeated draws of an object a peer already
// wants collapse into the one want (a live node downloads an object once),
// and cohort members get their session edges: wants only inside the window,
// plus a departure the fault schedule enforces by closing the node.
func (s *swarmRun) buildWave() error {
	spec := s.cfg.Workload
	if spec == nil {
		// The default live wave: the flash-crowd builtin, re-anchored so one
		// downloader expects about wantsPerNode requests over the window
		// (the builtins' anchor suits hours-long simulations, not a
		// seconds-long swarm).
		spec, _ = workload.Builtin("flash")
		spec.RequestsPerPeer = wantsPerNode
	}
	s.objects = catalogFor(s.cfg.Nodes)
	seeds := max(2, s.cfg.Nodes/20)
	downloaders := s.cfg.Nodes - seeds
	window := s.cfg.WaveWindow.Seconds()
	sched, err := spec.Compile(window, downloaders, s.objects, s.cfg.Seed)
	if err != nil {
		return fmt.Errorf("swarm: wave workload: %w", err)
	}
	for i := 0; i < seeds; i++ {
		p := &peerState{id: core.PeerID(i + 1), strat: strategy.Sharing()}
		for o := i + 1; o <= s.objects; o += seeds {
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
			for _, j := range s.rng.Perm(downloaders)[:min(providersPerWant, downloaders)] {
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

// describe names the world for progress logs.
func (s *swarmRun) describe() string {
	classes := make(map[string]int)
	for _, p := range s.peers {
		classes[p.strat.Name]++
	}
	return fmt.Sprintf("%s: %d nodes %v, %d objects", s.cfg.Scenario, len(s.peers), classes, s.objects)
}
