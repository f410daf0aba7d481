package swarm

import (
	"fmt"
	"slices"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/strategy"
	"barter/internal/workload"
)

// scenarioDef is one row of the scenario table: the layout of the
// scenario's world, the defaults it gives Config's zero fields, and the
// harness switches it turns. Every per-scenario decision in the package reads
// a row.
type scenarioDef struct {
	name Scenario
	// paired lays the world out as exchange pairs (layPaired); otherwise it
	// is seeded (laySeeded): max(minSeeds, Nodes/seedEvery) seeds hold one
	// object, or catalogFor(Nodes) objects on a catalog row.
	paired              bool
	seedEvery, minSeeds int
	catalog             bool
	// slots is a sharer's default upload-slot count; paced spaces every
	// upload's blocks 1 ms apart.
	slots int
	paced bool
	// The default class fractions; adversaryFrac is each strategic class's
	// (adaptive, whitewasher, partial) when Config sets none of them. A row
	// with no corrupt class ignores Config.CorruptFrac, and one with no
	// strategic classes ignores the three adversary fractions.
	freeriderFrac, corruptFrac, adversaryFrac float64
	// mediators marks a mediated row: its nodes run the mediated block
	// path against a tier of that many shards by default. Zero means the
	// row's nodes use no mediator, and its runs start no tier. kills and
	// restarts (quickRestarts under Quick) are the default counts of shard
	// kill and node restart cycles; zero means the scenario plays none.
	mediators, kills, restarts, quickRestarts int
	// window is the default horizon of a temporal demand spec (a third of
	// it under Quick); zero means the scenario takes no spec.
	window time.Duration
	// trusted hands nodes the run's block digests, so they reject junk on
	// arrival.
	trusted bool
}

// scenarios is the scenario table, in presentation order.
var scenarios = []scenarioDef{
	// flashcrowd: one object, a few seed holders, everyone else downloads it
	// at once; completed sharers join the provider set (epidemic spread).
	{name: FlashCrowd, seedEvery: 30, minSeeds: 2, slots: 4},
	// mixed: a steady workload — many objects, one per seed, every node
	// wants a few it lacks.
	{name: Mixed, seedEvery: 8, minSeeds: 4, catalog: true, slots: 4},
	// freerider: sharers hold content and form mutual-want pairs (live
	// exchange rings); a fraction of peers contributes nothing. Scarce paced
	// slots give ring negotiation time to preempt, as in the paper's
	// fixed-rate transfer model, and the output mirrors Figure 12: mean
	// completion time for the "sharing" vs "non-sharing" class.
	{name: Freerider, paired: true, slots: 1, paced: true, freeriderFrac: 0.3},
	// cheater: a fraction of the flash crowd's seeds serve junk; receivers
	// check every block against the object's digests, reject the junk on
	// arrival and complete from honest holders. No node talks to a
	// mediator, so the run starts no tier and is judged by its downloads.
	{name: Cheater, seedEvery: 30, minSeeds: 2, slots: 4, corruptFrac: 0.3, trusted: true},
	// churn: the mixed workload while nodes are closed and restarted mid-run,
	// hundreds of times; every shutdown path in node, transport, and
	// mediator is exercised under load.
	{name: Churn, seedEvery: 8, minSeeds: 4, catalog: true, slots: 4, restarts: 200, quickRestarts: 60},
	// adversary: the freerider pairing substrate plus the strategic classes
	// of internal/strategy — adaptive free-riders that start contributing
	// once starved, whitewashers that periodically rejoin under fresh
	// identities, and partial sharers with throttled upload slots (two
	// slots leave them headroom) — each reported as its own live/<class>
	// series.
	{name: Adversary, paired: true, slots: 2, paced: true, adversaryFrac: 0.15},
	// medfail: the cheater world with every node speaking the mediated block
	// path natively (sealed blocks, escrowed keys, end-of-transfer audits via
	// internal/medclient) while the shards of a 4-shard tier that own its
	// object are killed and restarted mid-run, each down for half the kill
	// interval, paced so kills land while blocks are in flight; the nodes'
	// own audits must still flag every cheater. Over a durable tier (Config.MedDataDir) no
	// restart — nor a final restart of the whole tier from its logs alone —
	// may forget a flagged cheater.
	{name: Medfail, seedEvery: 30, minSeeds: 2, slots: 4, paced: true, corruptFrac: 0.3, mediators: 4, kills: 6},
	// wave: the temporal workload scenario — a few seeds hold the catalog
	// round-robin while everyone else's demand is scheduled by a
	// workload.Spec (see internal/workload) compiled over Config.WaveWindow:
	// request times follow the spec's demand curve, objects its popularity
	// model, and cohort peers arrive late or depart early as live session
	// churn. The same spec drives sim.Config.Workload, so live and simulated
	// runs share one demand definition.
	{name: Wave, seedEvery: 20, minSeeds: 2, catalog: true, slots: 4, window: 6 * time.Second},
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

// build lays the run's world out by its row — classes, content, wants and
// the catalog size — drawing only from the run's seeded RNG.
func (s *swarmRun) build() error {
	if s.def.paired {
		s.layPaired()
		return nil
	}
	return s.laySeeded()
}

// laySeeded lays out the seeded world: the first max(minSeeds,
// Nodes/seedEvery) peers seed a catalog of one object (catalogFor(Nodes)
// objects on a catalog row), seed i holding every object o with
// o-1 ≡ i (mod min(seeds, objects)), and the first CorruptFrac of them
// serving junk. FreeriderFrac of the population — drawn from the non-seeds
// by one Perm, and no draw at all at zero — shares nothing. Every peer wants
// up to wantsPerNode objects it lacks at t = 0, in Perm(objects) order; on a
// row with a window each non-seed wants instead what the spec schedules for
// it. A want's providers are the object's holders plus a few random peers:
// they hold nothing yet, but the retry path finds them once they complete,
// so objects spread epidemically.
func (s *swarmRun) laySeeded() error {
	n, d := s.cfg.Nodes, s.def
	seeds := max(d.minSeeds, n/d.seedEvery)
	s.objects = 1
	if d.catalog {
		s.objects = catalogFor(n)
	}
	for i := 0; i < n; i++ {
		s.peers = append(s.peers, &peerState{id: core.PeerID(i + 1), strat: strategy.Sharing()})
	}
	if riders := min(strategy.LegacyMix(s.cfg.FreeriderFrac).Counts(n)[0], n-seeds); riders > 0 {
		for _, j := range s.rng.Perm(n - seeds)[:riders] {
			s.peers[seeds+j].strat = strategy.NonSharing()
		}
	}
	if s.cfg.CorruptFrac > 0 {
		// At least one corrupt seed so the scenario means something, and at
		// least one honest seed so downloads can complete at all.
		bad := min(max(1, int(float64(seeds)*s.cfg.CorruptFrac)), seeds-1)
		for _, p := range s.peers[:bad] {
			p.strat = strategy.Corrupt()
		}
	}
	stride := min(seeds, s.objects)
	holders := make([][]core.PeerID, s.objects+1)
	for i, p := range s.peers[:seeds] {
		for o := i%stride + 1; o <= s.objects; o += stride {
			p.holds = append(p.holds, catalog.ObjectID(o))
			holders[o] = append(holders[o], p.id)
		}
	}
	want := func(p *peerState, obj catalog.ObjectID, at time.Duration) {
		providers := append([]core.PeerID(nil), holders[obj]...)
		for _, j := range s.rng.Perm(n)[:min(providersPerWant, n)] {
			if other := s.peers[j].id; other != p.id && !slices.Contains(holders[obj], other) {
				providers = append(providers, other)
			}
		}
		p.wants = append(p.wants, &wantState{obj: obj, providers: providers, startAt: at})
	}
	if d.window > 0 {
		return s.scheduleWants(seeds, want)
	}
	for _, p := range s.peers {
		for _, oi := range s.rng.Perm(s.objects) {
			if len(p.wants) >= wantsPerNode {
				break
			}
			if obj := catalog.ObjectID(oi + 1); !slices.Contains(p.holds, obj) {
				want(p, obj, 0)
			}
		}
	}
	return nil
}

// scheduleWants gives every peer past the seeds the wants the run's
// workload spec schedules for it over the wave window. Each downloader's
// arrival times and object draws use its private schedule stream, so the
// same (spec, window, population, objects, seed) tuple always yields the
// same want structure. Repeated draws of an object a peer already wants
// collapse into the one want (a live node downloads an object once), and
// cohort members get their session edges: wants only inside the window,
// plus a departure the fault schedule enforces by closing the node.
func (s *swarmRun) scheduleWants(seeds int, want func(*peerState, catalog.ObjectID, time.Duration)) error {
	spec := s.cfg.Workload
	if spec == nil {
		// The default live wave: the flash-crowd builtin, re-anchored so one
		// downloader expects about wantsPerNode requests over the window
		// (the builtins' anchor suits hours-long simulations, not a
		// seconds-long swarm).
		spec, _ = workload.Builtin("flash")
		spec.RequestsPerPeer = wantsPerNode
	}
	window := s.cfg.WaveWindow.Seconds()
	sched, err := spec.Compile(window, len(s.peers)-seeds, s.objects, s.cfg.Seed)
	if err != nil {
		return fmt.Errorf("swarm: wave workload: %w", err)
	}
	for d, p := range s.peers[seeds:] {
		arrive, depart := sched.Session(d)
		st := sched.PeerStream(d)
		seen := make(map[catalog.ObjectID]bool)
		for t := sched.NextArrival(arrive, st); t < depart; t = sched.NextArrival(t, st) {
			// Schedule objects are 0-based; swarm objects are 1-based.
			obj := catalog.ObjectID(sched.SampleObject(t, st) + 1)
			if !seen[obj] {
				seen[obj] = true
				want(p, obj, time.Duration(t*float64(time.Second)))
			}
		}
		if arrive > 0 && s.rec != nil {
			// The cohort's session start is part of the recorded demand shape
			// even though the live node simply idles until its first want.
			s.rec.Arrive(arrive, int(p.id))
		}
		if depart < window {
			p.departAt = time.Duration(depart * float64(time.Second))
		}
	}
	return nil
}

// pairBlock appends count peers running strat, the live network's pairwise
// exchange substrate: the peer with id k holds object k and wants its
// partner's (1 and 2 exchange, 3 and 4, ...). Every block is even.
func (s *swarmRun) pairBlock(strat strategy.Strategy, count int) {
	for i := 0; i < count; i++ {
		id := len(s.peers) + 1
		partner := ((id - 1) ^ 1) + 1
		s.peers = append(s.peers, &peerState{
			id:    core.PeerID(id),
			strat: strat,
			holds: []catalog.ObjectID{catalog.ObjectID(id)},
			wants: []*wantState{{obj: catalog.ObjectID(partner), providers: []core.PeerID{core.PeerID(partner)}}},
		})
	}
}

// layPaired lays out the paired world: sharers, partial sharers and
// adaptive free-riders pair within their class (adaptive pairs deadlock
// until starvation flips them), while whitewashers and static free-riders
// hold nothing and want sharer-held objects. Whitewashers first want one
// adaptive-held object when there is one: it cannot complete before the
// adaptive class flips, so the identity churn always has something to
// launder.
func (s *swarmRun) layPaired() {
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

	s.pairBlock(strategy.Sharing(), sharers)
	s.pairBlock(strategy.PartialSharer(), partials)
	s.pairBlock(strategy.AdaptiveFreerider(), adaptive)
	s.objects = len(s.peers)

	// Whitewashers and riders: no content, wants over the sharer block (and
	// for whitewashers, one adaptive-held object first when there is one).
	// A sharer-block want lists both the holder and its partner: the partner
	// holds the object too once their exchange completes.
	addLeech := func(strat strategy.Strategy) {
		p := &peerState{id: core.PeerID(len(s.peers) + 1), strat: strat}
		if strat.Whitewash && adaptive > 0 {
			holder := sharers + partials + s.rng.Intn(adaptive) + 1
			p.wants = append(p.wants, &wantState{obj: catalog.ObjectID(holder), providers: []core.PeerID{core.PeerID(holder)}})
		}
		for _, oi := range s.rng.Perm(sharers)[:min(wantsPerNode, sharers)] {
			p.wants = append(p.wants, &wantState{
				obj:       catalog.ObjectID(oi + 1),
				providers: []core.PeerID{core.PeerID(oi + 1), core.PeerID((oi ^ 1) + 1)},
			})
		}
		s.peers = append(s.peers, p)
	}
	for i := 0; i < whitewashers; i++ {
		addLeech(strategy.Whitewasher())
	}
	for i := 0; i < riders; i++ {
		addLeech(strategy.NonSharing())
	}
}

// describe names the world for progress logs.
func (s *swarmRun) describe() string {
	classes := make(map[string]int)
	for _, p := range s.peers {
		classes[p.strat.Name]++
	}
	return fmt.Sprintf("%s: %d nodes %v, %d objects", s.cfg.Scenario, len(s.peers), classes, s.objects)
}
