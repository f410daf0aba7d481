package swarm

import (
	"time"

	"barter/internal/catalog"
	"barter/internal/eventq"
)

// fault is one timed event of a run: at its offset from the run's start the
// driver runs act, which returns the delay after which it wants to run again
// (zero: done). Closing stop drops a waiting event; nil never does.
type fault struct {
	at    time.Duration
	peer  *peerState // the peer it acts on; nil for a shard kill
	shard int        // the shard a kill restarts
	stop  <-chan struct{}
	act   func() time.Duration
}

// schedule compiles every timed action of the run from the built world and
// (Config, seed) alone: churn's victims are the run RNG's next draws after
// the world was built. Shard kills and adversary events stop once every
// want has settled; churn plays every cycle, and a departure still closes
// its node on time.
func (s *swarmRun) schedule() []fault {
	var fs []fault
	// The first kill lands at once: a quick world can finish inside one
	// kill interval, and a medfail run that never lost a shard proves
	// nothing.
	for i := 0; i < s.cfg.MedKills; i++ {
		shard := i % s.cfg.Mediators
		fs = append(fs, fault{at: time.Duration(i) * s.cfg.MedKillInterval, shard: shard, stop: s.settled,
			act: func() time.Duration { s.logf("killing mediator shard %d", shard); s.restartShard(shard); return 0 }})
	}
	for i := 0; i < s.cfg.Restarts; i++ {
		p := s.peers[s.rng.Intn(len(s.peers))]
		fs = append(fs, fault{at: time.Duration(i) * churnInterval, peer: p, act: s.cycle(p, churnInterval, func(*peerState) {})})
	}
	var deps map[*peerState][]*wantState
	for _, p := range s.peers {
		switch {
		case p.departAt > 0:
			fs = append(fs, fault{at: p.departAt, peer: p, act: s.depart(p)})
		case p.strat.Adaptive:
			if deps == nil {
				deps = s.dependentWants()
			}
			fs = append(fs, fault{at: s.cfg.AdaptivePatience, peer: p, stop: s.settled, act: s.flip(p, deps[p])})
		case p.strat.Whitewash:
			fs = append(fs, fault{at: s.cfg.WhitewashInterval, peer: p, stop: s.settled, act: s.whitewash(p)})
		}
	}
	return fs
}

// play is the body of the run's one fault-driver goroutine: it steps every
// fault through one event queue in (at, seq) order, waiting for each one's
// wall time, and re-queues an event After the delay its action asks for.
// The run deadline drops every event.
func (s *swarmRun) play(faults []fault) {
	q := eventq.New()
	for _, f := range faults {
		var ev eventq.Func
		ev = func(at float64) {
			if wait := time.Duration(at) - time.Since(s.start); wait > 0 && !s.sleep(wait, f.stop) {
				return
			}
			select {
			case <-s.giveUp:
			default:
				if again := f.act(); again > 0 {
					q.After(float64(again), ev)
				}
			}
		}
		q.At(float64(f.at), ev)
	}
	for q.Step() {
	}
}

// cycle returns the action that closes p's node, applies change under p's
// lock, and respawns it. A refused respawn (the transport out of ports, say)
// retries every retry: a closed node's objects may be the only source of
// other peers' wants.
func (s *swarmRun) cycle(p *peerState, retry time.Duration, change func(*peerState)) func() time.Duration {
	closed := false
	return func() time.Duration {
		if !closed {
			p.current().Close()
			p.mu.Lock()
			change(p)
			p.restarts++
			p.mu.Unlock()
			closed = true
		}
		if err := s.spawn(p); err != nil {
			s.logf("respawn %d failed (retrying): %v", p.currentID(), err)
			return retry
		}
		return 0
	}
}

// depart takes a wave cohort peer offline for good once its own wants have
// settled: a run with failed wants is a failed run, and the recorded trace
// must not demand downloads the recorded session never left room for.
func (s *swarmRun) depart(p *peerState) func() time.Duration {
	return func() time.Duration {
		if !allDone(p.wants, true) {
			return 10 * time.Millisecond
		}
		p.current().Close()
		if s.rec != nil {
			s.rec.Depart(time.Since(s.start).Seconds(), int(p.currentID()))
		}
		return 0
	}
}

// flip implements "contributes only while refused" live: after its patience
// the peer restarts its node sharing unless its own downloads were served
// and nobody still waits on an object it holds. Checking the dependents
// matters: whoever flips first can serve its partner before the partner's
// check, and a pure self-check would then strand the early server. Once
// coerced it keeps serving — withdrawing service mid-transfer would strand
// the peer it is exchanging with.
func (s *swarmRun) flip(p *peerState, dependents []*wantState) func() time.Duration {
	var restart func() time.Duration
	return func() time.Duration {
		if restart == nil {
			if allDone(p.wants, false) && allDone(dependents, false) {
				return 0 // served, and nothing demands it: it never contributes
			}
			restart = s.cycle(p, s.cfg.AdaptivePatience, func(p *peerState) { p.forcedShare = true; p.flips++ })
		}
		return restart()
	}
}

// whitewash sheds the peer's identity — closing the node and respawning it
// under a fresh PeerID drops its queue positions and download progress,
// exactly the state a whitewasher launders away — until its wants are done.
// The period between churns doubles after each, so a loaded swarm always
// leaves the peer a window wide enough to finish its downloads.
func (s *swarmRun) whitewash(p *peerState) func() time.Duration {
	every := s.cfg.WhitewashInterval
	var churn func() time.Duration
	return func() time.Duration {
		if churn == nil {
			if allDone(p.wants, false) {
				return 0
			}
			churn = s.cycle(p, s.cfg.WhitewashInterval, func(p *peerState) { p.id = s.freshID(); p.whitewashes++ })
		}
		if retry := churn(); retry > 0 {
			return retry
		}
		churn = nil
		every *= 2
		return every
	}
}

// dependentWants maps each peer to the wants (across the whole swarm) that
// target an object it holds — the demand an adaptive peer is refusing.
func (s *swarmRun) dependentWants() map[*peerState][]*wantState {
	holder := make(map[catalog.ObjectID]*peerState)
	for _, p := range s.peers {
		for _, o := range p.holds {
			holder[o] = p
		}
	}
	deps := make(map[*peerState][]*wantState)
	for _, p := range s.peers {
		for _, w := range p.wants {
			if h := holder[w.obj]; h != nil {
				deps[h] = append(deps[h], w)
			}
		}
	}
	return deps
}
