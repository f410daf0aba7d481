package sim

// Open-loop demand: the temporal workload layer (Config.Workload) and trace
// replay (Config.Trace). Both replace the engine's closed-loop demand model
// — issueRequests topping every peer up to MaxPending — with externally
// driven request arrivals, while reusing the entire downstream machinery
// (lookup, ring search, sessions, eviction, churn) unchanged. Determinism
// is inherited: workload draws come from per-peer streams derived via
// rng.DeriveSeed, and replay events are scheduled from the trace's
// canonical order, so equal Configs still produce byte-identical results.

import (
	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/rng"
	"barter/internal/strategy"
	"barter/internal/workload"
)

// openLoop reports whether the run's demand is externally driven (workload
// or trace); the closed-loop issueRequests model is disabled then.
func (s *Sim) openLoop() bool { return s.sched != nil || s.replay }

// traceConfig derives the replay world from the trace header: the recorded
// population, object geometry, and a horizon long enough to finish
// transfers started near the recorded end. Replay forces the all-sharing
// legacy mix — the trace records demand, not strategy.
func traceConfig(cfg Config) Config {
	tr := cfg.Trace
	if n := tr.PeerCount(); n > 1 {
		cfg.NumPeers = n
	}
	if tr.Header.ObjectKbits > 0 {
		cfg.ObjectKbits = tr.Header.ObjectKbits
	}
	if tr.Header.BlockKbits > 0 {
		cfg.BlockKbits = tr.Header.BlockKbits
	}
	if cfg.BlockKbits > cfg.ObjectKbits {
		// A sim-scale block against swarm-scale objects would fail Validate.
		cfg.BlockKbits = cfg.ObjectKbits
	}
	cfg.Mix = strategy.LegacyMix(0)
	// Extend the horizon past the recorded one so transfers started by the
	// last recorded arrivals can complete: one object takes
	// ObjectKbits/SlotKbps seconds on a single slot.
	if minDur := tr.Header.Horizon + 20*cfg.ObjectKbits/cfg.SlotKbps; cfg.Duration < minDur {
		cfg.Duration = minDur
	}
	return cfg
}

// setupWorkload compiles the spec against this run and schedules the
// open-loop machinery: per-peer arrival chains and cohort session edges.
func (s *Sim) setupWorkload() error {
	sched, err := s.cfg.Workload.Compile(s.cfg.Duration, s.cfg.NumPeers, s.cat.NumObjects(), s.cfg.Seed)
	if err != nil {
		return err
	}
	s.sched = sched
	s.wstreams = make([]*rng.RNG, len(s.peers))
	for i, p := range s.peers {
		s.wstreams[i] = sched.PeerStream(i)
		arrive, depart := sched.Session(i)
		if arrive > 0 {
			s.initialOffline(p)
			id := p.id
			s.after(arrive, func(float64) { s.RejoinPeer(id) })
		}
		if depart < s.cfg.Duration {
			id := p.id
			s.after(depart, func(float64) { s.DisconnectPeer(id) })
		}
		s.scheduleArrival(p, 0)
	}
	return nil
}

// scheduleArrival arms the peer's next demand arrival strictly after `from`
// (the current virtual time at every call site, so the relative delay is
// exact). The chain runs for the whole horizon regardless of session state:
// an offline peer's arrivals are simply not acted on, which keeps each
// peer's draw sequence a pure function of its own stream.
func (s *Sim) scheduleArrival(p *peerState, from float64) {
	next := s.sched.NextArrival(from, s.wstreams[p.id])
	if next >= s.cfg.Duration {
		return
	}
	s.after(next-from, func(now float64) { s.workloadArrival(p, now) })
}

// workloadArrival is one open-loop demand arrival: sample an object from
// the popularity model and start its download if the peer is present and
// has pending capacity; otherwise the demand is lost (counted when the peer
// was present but saturated).
func (s *Sim) workloadArrival(p *peerState, now float64) {
	st := s.wstreams[p.id]
	switch {
	case !p.online:
		// Absent peers generate no demand; skip without drawing an object so
		// the draw count stays tied to acted-on arrivals.
	case len(p.pending) >= s.cfg.MaxPending:
		s.col.wlDropped++
	default:
		if obj, ok := s.sampleWorkloadObject(p, st, now); ok {
			if cands := s.holderCands(p, obj); len(cands) > 0 {
				s.startDownload(p, obj, cands)
			} else {
				s.col.lookupFails++
			}
		}
	}
	s.scheduleArrival(p, now)
}

// sampleWorkloadObject draws up to a few objects from the popularity model
// until one is neither stored nor already pending at the peer.
func (s *Sim) sampleWorkloadObject(p *peerState, st *rng.RNG, now float64) (catalog.ObjectID, bool) {
	const sampleTries = 8
	for t := 0; t < sampleTries; t++ {
		obj := catalog.ObjectID(s.sched.SampleObject(now, st))
		if !p.has(obj) && p.pendingFor(obj) == nil {
			return obj, true
		}
	}
	return 0, false
}

// setupReplay schedules every trace event. Peers with an arrive event start
// offline; holds seed stores (and the holder index for peers present at
// start) before any request fires.
func (s *Sim) setupReplay() {
	s.replay = true
	tr := s.cfg.Trace
	for _, ev := range tr.Events {
		if ev.Kind == workload.KindArrive {
			s.initialOffline(s.peers[ev.Peer])
		}
	}
	for _, ev := range tr.Events {
		p := s.peers[ev.Peer]
		switch ev.Kind {
		case workload.KindHold:
			obj := catalog.ObjectID(ev.Obj)
			if p.addObject(obj) && p.sharing && p.online {
				s.addHolder(obj, p.id)
			}
		case workload.KindRequest:
			obj := catalog.ObjectID(ev.Obj)
			s.after(ev.T, func(float64) { s.replayRequest(p, obj) })
		case workload.KindArrive:
			id := p.id
			s.after(ev.T, func(float64) { s.RejoinPeer(id) })
		case workload.KindDepart:
			id := p.id
			s.after(ev.T, func(float64) { s.DisconnectPeer(id) })
		}
	}
}

// replayRequest injects one recorded demand arrival. Recorded demand is
// external and persistent: if no holder is reachable yet (the recorded
// provider arrives later, say), the request retries at RetryInterval
// instead of being dropped, mirroring the live node's own retry loop.
func (s *Sim) replayRequest(p *peerState, obj catalog.ObjectID) {
	if !p.online || p.has(obj) || p.pendingFor(obj) != nil {
		return
	}
	cands := s.holderCands(p, obj)
	if len(cands) == 0 {
		s.col.lookupFails++
		s.after(s.cfg.RetryInterval, func(float64) { s.replayRequest(p, obj) })
		return
	}
	s.startDownload(p, obj, cands)
}

// initialOffline marks a peer absent before the first event fires: it
// leaves the holder index (construction added its initial store) and waits
// for its arrive edge. Only valid during New, before any transfers exist.
func (s *Sim) initialOffline(p *peerState) {
	if !p.online {
		return
	}
	s.setOnline(p, false)
	if p.sharing {
		s.unindexStoredObjects(p)
	}
}

// holderCands fills candScratch with the online holders of obj other than p
// itself — the shared lookup step of the closed-loop, workload, and replay
// request paths. The scratch contract is the caller's: startDownload must
// consume the slice before any re-entrant use.
func (s *Sim) holderCands(p *peerState, obj catalog.ObjectID) []core.PeerID {
	cands := s.candScratch[:0]
	if hs := s.holders.Get(obj); hs != nil {
		cands = hs.AppendTo(cands)
	}
	n := 0
	for _, h := range cands {
		if h != p.id && s.peers[h].online {
			cands[n] = h
			n++
		}
	}
	cands = cands[:n]
	s.candScratch = cands
	return cands
}
