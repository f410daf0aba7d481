package sim

import (
	"fmt"
	"slices"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/eventq"
	"barter/internal/index"
	"barter/internal/perfstats"
	"barter/internal/rng"
	"barter/internal/strategy"
	"barter/internal/workload"
)

// Sim is one simulation run: a deterministic, single-threaded discrete-event
// simulation of the exchange-based file-sharing system. Build it with New,
// drive it with Run (or Step/RunUntil for fine-grained control in tests).
//
// Exchange priority is enforced the way the paper describes an
// implementation would: peers search for rings at the paper's trigger points
// (before transmitting a request, on receipt of a request, and when learning
// that a neighbor acquired a wanted object), and any newly feasible exchange
// reclaims a non-exchange upload slot by preemption.
//
// # Determinism contract
//
// Equal Configs (including Seed) produce byte-identical results. Everything
// below serves that contract: the event queue breaks timestamp ties by
// schedule order, every index iterates in ascending peer-id order (candidate
// order feeds the RNG draws), and no behavior ever depends on map iteration
// order, pointer values, or wall-clock time. Performance work must preserve
// all three properties; see the package tests that pin them.
type Sim struct {
	cfg Config
	q   *eventq.Queue
	// blocks is the queue's fixed-delay lane: every block arrival is exactly
	// one block service time away (fixed slot rate, fixed block size), so
	// the run's dominant event never touches the heap, and the arrivals due
	// at one instant fire as one run into onBlock.
	blocks *eventq.Lane[arrival]
	r      *rng.RNG
	cat    *catalog.Catalog
	peers  []*peerState
	// holders indexes object -> online sharing peers storing it; wanters
	// indexes object -> peers with a pending download for it, so evictions
	// can scrub stale provider sets. Both iterate in ascending peer-id order,
	// exactly like the sorted slices they replaced.
	holders *index.Multimap[catalog.ObjectID, core.PeerID]
	wanters *index.Multimap[catalog.ObjectID, core.PeerID]
	graph   core.Graph
	// adj is the ring search's in-edge cache, one entry per peer id; the
	// peer table never grows, so New sizes it once.
	adj []adjCache
	col *collector

	ulSlots, dlSlots int
	// mix is the run's population mix (peers hold pointers into it).
	mix strategy.Mix
	ran bool

	// Open-loop demand state (see workload.go): sched and the per-peer
	// arrival streams drive Config.Workload runs; replay marks a
	// Config.Trace run. Both disable the closed-loop issueRequests model.
	sched    *workload.Schedule
	wstreams []*rng.RNG
	replay   bool

	// Scratch buffers, reused across events so the hot path stays
	// allocation-free at steady state. Each is used only within a single
	// engine call frame that cannot re-enter itself (documented per use).
	candScratch []core.PeerID
	objScratch  []catalog.ObjectID
	sessScratch []*session

	// Free lists for the per-transfer bookkeeping objects. Retired objects
	// park on the dead lists until reap, which runs at the start of the next
	// event: within one event, any snapshot of sessions or requests taken
	// before a termination stays readable.
	freeSess []*session
	freeReq  []*request
	deadSess []*session
	deadReq  []*request
}

// New constructs a run, places initial content, and schedules the initial
// request burst. The same Config (including Seed) always produces the same
// run.
func New(cfg Config) (*Sim, error) {
	if cfg.Trace != nil {
		if cfg.Workload != nil {
			return nil, fmt.Errorf("sim: Workload and Trace are mutually exclusive")
		}
		if err := cfg.Trace.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		// The replayed world's shape comes from the trace header, so the
		// overrides must land before Validate sees the config.
		cfg = traceConfig(cfg)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	catRNG := root.Split(1)
	engRNG := root.Split(2)

	cat, err := catalog.New(cfg.Catalog, catRNG)
	if err != nil {
		return nil, fmt.Errorf("sim: build catalog: %w", err)
	}
	// Population: class counts apportioned over the mix, assigned by random
	// permutation so peer ids carry no class information. This draw must stay
	// the first consumer of the engine stream so PeerClasses stays aligned
	// with New; for a legacy mix it consumes exactly the permutation the
	// historical free-rider draw did.
	mix := cfg.EffectiveMix()
	classOf := classAssignment(engRNG, mix, cfg.NumPeers)

	s := &Sim{
		cfg:     cfg,
		q:       eventq.New(),
		r:       engRNG,
		cat:     cat,
		holders: index.NewMultimap[catalog.ObjectID, core.PeerID](),
		wanters: index.NewMultimap[catalog.ObjectID, core.PeerID](),
		col:     newCollector(cfg.Duration*cfg.WarmupFrac, mix),
		ulSlots: cfg.UploadSlots(),
		dlSlots: cfg.DownloadSlots(),
		mix:     mix,
	}
	if s.blocks, err = eventq.NewLane(s.q, cfg.BlockKbits/cfg.SlotKbps, s.onBlock); err != nil {
		return nil, fmt.Errorf("sim: block lane: %w", err)
	}
	s.graph = core.Graph{
		Adj:     s.adjacency,
		Budget:  cfg.SearchBudget,
		Fanout:  cfg.SearchFanout,
		Scratch: core.NewSearchScratch(cfg.NumPeers),
	}

	s.peers = make([]*peerState, cfg.NumPeers)
	s.adj = make([]adjCache, cfg.NumPeers)
	for i := range s.peers {
		st := &s.mix[classOf[i]].Strategy
		p := &peerState{
			id:       core.PeerID(i),
			class:    classOf[i],
			strat:    st,
			sharing:  st.Share,
			online:   true,
			ulSlots:  st.SlotCap(s.ulSlots),
			interest: cat.NewInterest(engRNG),
			irqIndex: make(map[irqKey]*request),
			storeCap: engRNG.IntRange(cfg.StorageMinObjects, cfg.StorageMaxObjects),
		}
		p.retry = func(float64) {
			s.reap()
			p.retryEv = eventq.Handle{}
			s.issueRequests(p)
		}
		// Replay seeds stores exclusively from the trace's hold events.
		if cfg.Trace == nil {
			for _, o := range cat.InitialStore(p.interest, p.storeCap, engRNG) {
				p.store.Add(o)
				if p.sharing {
					s.addHolder(o, p.id)
				}
			}
		}
		// The initial store holds distinct objects of p's interest, and
		// nothing is pending yet.
		p.free = -p.store.Len()
		for _, c := range p.interest.Categories() {
			p.free += cat.CategorySize(c)
		}
		s.peers[i] = p
	}

	// Demand model: recorded trace, open-loop temporal workload, or the
	// legacy closed-loop initial burst staggered over the first minute.
	switch {
	case cfg.Trace != nil:
		s.setupReplay()
	case cfg.Workload != nil:
		if err := s.setupWorkload(); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	default:
		for i := range s.peers {
			id := core.PeerID(i)
			s.after(engRNG.Float64()*60, func(float64) { s.issueRequests(s.peers[id]) })
		}
	}
	s.after(cfg.EvictionInterval, s.evictionSweep)
	// Whitewash clocks, jittered so a cohort does not churn in lockstep.
	// Scheduling these after the burst loop keeps the RNG stream prefix of
	// legacy mixes (which have no whitewashers) untouched.
	for _, p := range s.peers {
		if p.strat.Whitewash {
			s.after(cfg.whitewashInterval()*(0.5+engRNG.Float64()), func(float64) { s.whitewash(p) })
		}
	}
	return s, nil
}

// classAssignment draws the per-peer class indexes for the mix. It must be
// the first consumer of the engine stream so PeerClasses stays aligned with
// New.
func classAssignment(r *rng.RNG, mix strategy.Mix, n int) []int {
	return mix.Assign(r.Perm(n))
}

// PeerClasses returns, per peer id, whether New(cfg) will make that peer a
// contributor from the start, without constructing the simulation. External
// mechanisms that key behavior on class (e.g. the KaZaA cheat model, where
// exactly the free-riders misreport) use this to stay aligned with the run.
func PeerClasses(cfg Config) map[core.PeerID]bool {
	mix := cfg.EffectiveMix()
	classOf := classAssignment(rng.New(cfg.Seed).Split(2), mix, cfg.NumPeers)
	classes := make(map[core.PeerID]bool, cfg.NumPeers)
	for i, c := range classOf {
		classes[core.PeerID(i)] = mix[c].Share
	}
	return classes
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.q.Now() }

// Step fires the next instant's worth of work: one heap event, or every
// block arrival of one lane run (all arrivals due at one instant, unless a
// heap event on that instant splits them). It reports whether anything
// remained to fire.
func (s *Sim) Step() bool { return s.q.Step() }

// RunUntil advances virtual time to horizon.
func (s *Sim) RunUntil(horizon float64) { s.q.RunUntil(horizon) }

// Run executes the configured horizon and returns the collected result. It
// must be called at most once.
func (s *Sim) Run() (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("sim: Run called twice")
	}
	s.ran = true
	s.q.RunUntil(s.cfg.Duration)
	// Finalize sessions still open at the horizon so long-lived transfers
	// are represented in the session statistics.
	for _, p := range s.peers {
		for _, up := range p.uploads {
			if !up.closed {
				s.col.sessionDone(s.q.Now(), up)
				up.closed = true
			}
		}
	}
	res := s.col.result(s.cfg.Policy.String(), s.q.Now(), s.q.Fired(), s.mix.Counts(len(s.peers)))
	perfstats.AddRun(perfstats.Snapshot{
		Runs:               1,
		Events:             res.Events,
		LaneEvents:         s.q.LaneFired(),
		LaneRuns:           s.q.LaneRuns(),
		HeapEvents:         s.q.Fired() - s.q.LaneFired(),
		RingSearches:       uint64(res.RingSearches),
		SearchNodesVisited: uint64(res.SearchNodesVisited),
		SearchWantsChecked: uint64(res.SearchWantsChecked),
		RingsStarted:       uint64(res.RingAttempts - res.RingValidationFailures),
	})
	return res, nil
}

// reap recycles the sessions and requests retired during the previous event.
// It runs at the start of every event that might see them (and nowhere
// else), so within one event any snapshot of live objects taken before a
// termination remains readable, and a recycled object can never be observed
// through a stale pointer held by in-flight iteration. A recycled session
// keeps its generation: a lane arrival stamped with an earlier one stays
// dead in the session's next life.
func (s *Sim) reap() {
	for i, sess := range s.deadSess {
		*sess = session{gen: sess.gen}
		s.freeSess = append(s.freeSess, sess)
		s.deadSess[i] = nil
	}
	s.deadSess = s.deadSess[:0]
	for i, req := range s.deadReq {
		*req = request{}
		s.freeReq = append(s.freeReq, req)
		s.deadReq[i] = nil
	}
	s.deadReq = s.deadReq[:0]
}

func (s *Sim) newSession() *session {
	if n := len(s.freeSess); n > 0 {
		sess := s.freeSess[n-1]
		s.freeSess[n-1] = nil
		s.freeSess = s.freeSess[:n-1]
		return sess
	}
	return &session{}
}

func (s *Sim) newRequest(requester core.PeerID, obj catalog.ObjectID, arrival float64) *request {
	var req *request
	if n := len(s.freeReq); n > 0 {
		req = s.freeReq[n-1]
		s.freeReq[n-1] = nil
		s.freeReq = s.freeReq[:n-1]
	} else {
		req = &request{}
	}
	req.requester, req.object, req.arrival, req.session = requester, obj, arrival, nil
	return req
}

// retireRequest parks a dequeued request for recycling at the next event.
func (s *Sim) retireRequest(req *request) { s.deadReq = append(s.deadReq, req) }

// after schedules fn; scheduling with non-negative delay cannot fail, so a
// failure is a programming error worth crashing on. Every event entry point
// reaps the previous event's retirements first.
func (s *Sim) after(delay float64, fn func(now float64)) {
	if _, err := s.q.After(delay, eventq.Func(func(now float64) {
		s.reap()
		fn(now)
	})); err != nil {
		panic(fmt.Sprintf("sim: internal scheduling error: %v", err))
	}
}

// adjCache is one peer's live in-edge list as ring searches see it (see
// Sim.adjacency), valid while ok. Only the peer's own side can change the
// list — its IRQ, an entry's session link, its store — and each such
// mutation clears ok. A requester's side cannot: every IRQ entry's requester
// is online and wants the entry's object, because a requester withdraws its
// entries before it departs or finishes the download.
type adjCache struct {
	edges []core.Edge
	ok    bool
}

// adjacency is the ring search's view of a peer's in-edges (core.Graph.Adj).
// limit is always the graph's Fanout, so one cached list per peer serves
// every call: a depth-first search revisits the same peers over many paths,
// and consecutive searches mostly run between mutations, so the list is
// rebuilt only when one of the peer's own mutations has cleared its ok.
func (s *Sim) adjacency(pid core.PeerID, limit int) []core.Edge {
	a := &s.adj[pid]
	if !a.ok {
		a.edges = s.liveEdges(s.peers[pid], limit, a.edges[:0])
		a.ok = true
	}
	return a.edges
}

// liveEdges appends to dst the live, unserved in-edges of p in IRQ order. A
// positive limit stops the scan at the limit-th live edge: the search
// explores no more than its fanout per node, and the queue behind that point
// (up to IRQCapacity entries) is never looked at. The requester side needs
// no check: every queued requester is online and wants the object (see
// adjCache).
func (s *Sim) liveEdges(p *peerState, limit int, dst []core.Edge) []core.Edge {
	for _, e := range p.irq {
		if e.session != nil || !p.has(e.object) {
			continue // served, or evicted since registration
		}
		dst = append(dst, core.Edge{Peer: e.requester, Object: e.object})
		if len(dst) == limit {
			break
		}
	}
	return dst
}

// moveFree adds d to p.free if obj lies in p's interest categories. A
// peer's store and pending list are disjoint (requests draw only misses, and
// a download leaves pending before its object is stored), so each add or
// remove on either moves the count by exactly one.
func (s *Sim) moveFree(p *peerState, obj catalog.ObjectID, d int) {
	if slices.Contains(p.interest.Categories(), s.cat.Category(obj)) {
		p.free += d
	}
}

// addObject stores obj at p and reports whether it was absent.
func (s *Sim) addObject(p *peerState, obj catalog.ObjectID) bool {
	s.adj[p.id].ok = false
	if !p.store.Add(obj) {
		return false
	}
	s.moveFree(p, obj, -1)
	return true
}

// removeObject deletes obj from p's store.
func (s *Sim) removeObject(p *peerState, obj catalog.ObjectID) {
	s.adj[p.id].ok = false
	if p.store.Remove(obj) {
		s.moveFree(p, obj, +1)
	}
}

// addPending registers a new download at p and in the wanters index.
func (s *Sim) addPending(p *peerState, dl *download) {
	s.moveFree(p, dl.object, -1)
	p.pending = append(p.pending, dl)
	s.wanters.Add(dl.object, p.id)
}

// removePending unregisters p's download of obj (completed or abandoned).
// p's requests for it must already be withdrawn from every server's queue.
func (s *Sim) removePending(p *peerState, obj catalog.ObjectID) {
	for i, dl := range p.pending {
		if dl.object == obj {
			p.pending = slices.Delete(p.pending, i, i+1)
			s.moveFree(p, obj, +1)
			break
		}
	}
	s.wanters.Remove(obj, p.id)
}

// withdrawRequests drops p's registered requests for dl from every server's
// queue. It runs before dl leaves p.pending, and on departure before p's
// transfers end, so no search or service decision ever sees a request
// nobody wants.
func (s *Sim) withdrawRequests(p *peerState, dl *download) {
	for _, srv := range dl.requestedFrom {
		if req := s.dropIRQ(s.peers[srv], p.id, dl.object); req != nil {
			s.retireRequest(req)
		}
	}
}

// dropQueue discards p's whole incoming request queue; requesters will be
// served elsewhere or retry.
func (s *Sim) dropQueue(p *peerState) {
	for i, e := range p.irq {
		s.retireRequest(e)
		p.irq[i] = nil
	}
	p.irq = p.irq[:0]
	clear(p.irqIndex)
	s.adj[p.id].ok = false
}

// --- holder index -----------------------------------------------------

func (s *Sim) addHolder(o catalog.ObjectID, id core.PeerID)    { s.holders.Add(o, id) }
func (s *Sim) removeHolder(o catalog.ObjectID, id core.PeerID) { s.holders.Remove(o, id) }

// --- request issue ------------------------------------------------------

// issueRequests tops the peer up to MaxPending outstanding downloads. It is
// the closed-loop demand model only: under a workload or trace (openLoop),
// demand arrives from workload.go and this is a no-op — the call sites in
// completeDownload and RejoinPeer must not synthesize extra requests there.
func (s *Sim) issueRequests(p *peerState) {
	if !p.online || s.openLoop() {
		return
	}
	for len(p.pending) < s.cfg.MaxPending {
		if !s.attemptRequest(p) {
			s.scheduleRetry(p)
			return
		}
	}
}

// attemptRequest samples one obtainable object (a cache miss with at least
// one online sharing holder) and starts its download. It reports success.
func (s *Sim) attemptRequest(p *peerState) bool {
	const sampleTries, missTries = 8, 64
	if p.free == 0 {
		// Every draw would be a hit, so SampleMiss would fail after missTries
		// draws of two Uint64 each: consume them without drawing.
		s.r.Skip(2 * missTries)
		return false
	}
	excluded := func(o catalog.ObjectID) bool {
		return p.has(o) || p.pendingFor(o) != nil
	}
	for t := 0; t < sampleTries; t++ {
		obj, ok := s.cat.SampleMiss(p.interest, s.r, excluded, missTries)
		if !ok {
			return false
		}
		// candScratch is safe here: startDownload consumes it before this
		// frame can recurse into another attemptRequest (downloads only
		// complete from block events, never synchronously).
		cands := s.holderCands(p, obj)
		if len(cands) == 0 {
			s.col.lookupFails++
			continue
		}
		s.startDownload(p, obj, cands)
		return true
	}
	return false
}

// scheduleRetry arms a single back-off retry for a peer that currently
// cannot find anything obtainable.
func (s *Sim) scheduleRetry(p *peerState) {
	if p.retryEv.Valid() {
		s.q.Cancel(p.retryEv)
	}
	h, err := s.q.After(s.cfg.RetryInterval, p.retry)
	if err != nil {
		panic(fmt.Sprintf("sim: internal scheduling error: %v", err))
	}
	p.retryEv = h
}

// startDownload creates the download, performs the lookup-bounded provider
// discovery, runs the paper's before-transmission ring search, and registers
// requests with a subset of providers.
func (s *Sim) startDownload(p *peerState, obj catalog.ObjectID, cands []core.PeerID) {
	now := s.q.Now()
	discovered := s.sampleSubset(cands, s.cfg.LookupMax)
	dl := &download{
		object:      obj,
		requestedAt: now,
		providers:   slices.Clone(discovered), // distinct holders; discovered is the caller's scratch
	}
	// Pairwise opportunities with peers already queued here: a requester in
	// p's IRQ that holds obj qualifies even if the lookup missed it.
	for _, e := range p.irq {
		q := s.peers[e.requester]
		if q.sharing && q.online && q.has(obj) {
			dl.addProvider(e.requester)
		}
	}
	s.addPending(p, dl)
	if p.strat.Adaptive {
		// Adaptive free-riders contribute only while refused: arm a starvation
		// check that flips the peer to contributing if this download is still
		// pending after the patience window.
		adl := dl
		s.after(s.cfg.adaptivePatience(), func(float64) { s.adaptiveCheck(p, adl) })
	}

	// "Prior to transmission of a request for object o, the peer inspects
	// the entire Request Tree to see if any peer provides o."
	s.tryExchange(p, p.wantFor(dl), nil)

	n := s.cfg.RequestFanout
	if n > len(discovered) {
		n = len(discovered)
	}
	for _, h := range discovered[:n] {
		s.sendRequest(p, s.peers[h], dl)
	}
}

// sampleSubset selects up to k elements drawn without replacement, in
// deterministic order derived from the engine RNG. The selection permutes
// list in place (callers pass scratch) and draws the same RNG sequence as
// the historical copy-then-shuffle implementation.
func (s *Sim) sampleSubset(list []core.PeerID, k int) []core.PeerID {
	if len(list) <= k {
		return list
	}
	for i := 0; i < k; i++ {
		j := i + s.r.Intn(len(list)-i)
		list[i], list[j] = list[j], list[i]
	}
	return list[:k]
}

// sendRequest registers p's request at server and runs the receipt-time
// incremental ring search over the new edge.
func (s *Sim) sendRequest(p, server *peerState, dl *download) {
	if !server.online {
		return
	}
	if server.lookupIRQ(p.id, dl.object) != nil {
		return // one registered request per (peer, object)
	}
	req := s.newRequest(p.id, dl.object, s.q.Now())
	if s.addIRQ(server, req, s.cfg.IRQCapacity) == nil {
		s.freeReq = append(s.freeReq, req) // never enqueued; recycle at once
		s.col.irqRejected++
		return
	}
	dl.requestedFrom = append(dl.requestedFrom, server.id)
	// The new requester may directly hold objects the server wants.
	if p.sharing {
		for _, sdl := range server.pending {
			if p.has(sdl.object) {
				sdl.addProvider(p.id)
			}
		}
	}
	// "On receipt of each request, the peer need only inspect the incoming
	// Request Tree associated with it."
	s.tryExchange(server, server.wants(), &core.Edge{Peer: p.id, Object: dl.object})
	s.tryServe(server)
}

// --- exchange machinery ---------------------------------------------------

// tryExchange searches for a ring rooted at root and starts it if the
// validation token succeeds. via restricts the search to one new edge (the
// receipt-time incremental search). It reports whether a ring started.
func (s *Sim) tryExchange(root *peerState, wants []core.Want, via *core.Edge) bool {
	if !s.cfg.Policy.SearchesExchanges() || !root.sharing || !root.online {
		return false
	}
	if len(wants) == 0 || len(root.irq) == 0 {
		return false
	}
	var (
		ring *core.Ring
		st   core.SearchStats
		ok   bool
	)
	if via != nil {
		ring, _, st, ok = s.graph.FindRingVia(root.id, *via, wants, s.cfg.Policy)
	} else {
		ring, _, st, ok = s.graph.FindRing(root.id, wants, s.cfg.Policy)
	}
	s.col.ringSearches++
	s.col.searchNodes += st.NodesVisited
	s.col.searchWants += st.WantsChecked
	if !ok {
		return false
	}
	s.col.ringAttempts++
	if reason := s.validateRing(ring); reason != "" {
		s.col.ringFailures++
		s.col.failReasons[reason]++
		return false
	}
	s.startRing(ring)
	return true
}

// findSession returns the open session src->dst carrying object, if any.
func (s *Sim) findSession(src, dst *peerState, object catalog.ObjectID) *session {
	for _, up := range src.uploads {
		if up.dst == dst.id && up.object == object {
			return up
		}
	}
	return nil
}

// validateRing is the simulation analogue of circulating the ring-initiation
// token: every member must still be online, sharing, hold the object it
// gives, find its successor still wanting that object, and have upload and
// download capacity (or a preemptible non-exchange upload). It returns ""
// when the ring is viable, otherwise the name of the first failed check.
func (s *Sim) validateRing(ring *core.Ring) string {
	n := ring.Size()
	for i, m := range ring.Members {
		pm := s.peers[m.Peer]
		np := s.peers[ring.Members[(i+1)%n].Peer]
		switch {
		case !pm.online:
			return "member-offline"
		case !pm.sharing:
			return "member-not-sharing"
		case !pm.has(m.Gives):
			return "object-gone"
		case np.pendingFor(m.Gives) == nil:
			return "successor-lost-interest"
		}
		if !pm.hasFreeUploadSlot() {
			if s.cfg.DisablePreemption || pm.preemptibleUpload() == nil {
				return "no-upload-capacity"
			}
		}
		dup := s.findSession(pm, np, m.Gives)
		if dup != nil && dup.ringSize > 1 {
			return "link-already-in-ring"
		}
		if !np.hasFreeDownloadSlot(s.dlSlots) && dup == nil {
			return "no-download-capacity"
		}
	}
	return ""
}

// startRing replaces any duplicate non-exchange transfers on the ring's
// links, reclaims upload slots by preemption where needed, and starts the
// ring's sessions. Validation has already succeeded.
func (s *Sim) startRing(ring *core.Ring) {
	now := s.q.Now()
	n := ring.Size()
	rs := &ringState{}

	// Replace duplicate non-exchange transfers on ring links ("normal
	// transfer sessions tend to be canceled and replaced by exchanges").
	for i, m := range ring.Members {
		np := s.peers[ring.Members[(i+1)%n].Peer]
		if dup := s.findSession(s.peers[m.Peer], np, m.Gives); dup != nil && dup.ringSize == 1 {
			s.terminateSession(dup, false)
		}
	}
	// Reclaim upload slots.
	for _, m := range ring.Members {
		pm := s.peers[m.Peer]
		if !pm.hasFreeUploadSlot() {
			victim := pm.preemptibleUpload()
			if victim == nil {
				// A replacement above raced away the preemptible session;
				// abandon the ring attempt (token failure).
				s.abortRing(rs)
				s.col.ringFailures++
				return
			}
			s.col.preemptions++
			s.terminateSession(victim, false)
		}
	}
	// Create the ring's sessions.
	for i, m := range ring.Members {
		src := s.peers[m.Peer]
		dst := s.peers[ring.Members[(i+1)%n].Peer]
		entry := src.lookupIRQ(dst.id, m.Gives)
		if entry == nil {
			// The ring closes through a provider the root never transmitted
			// a request to; register the implicit request now (it is served
			// immediately, bypassing queue capacity).
			entry = s.newRequest(dst.id, m.Gives, now)
			s.pushIRQ(src, entry)
			dl := dst.pendingFor(m.Gives)
			dl.requestedFrom = append(dl.requestedFrom, src.id)
		}
		sess := s.startSession(src, dst, m.Gives, n, rs, entry)
		rs.sessions = append(rs.sessions, sess)
	}
	s.col.ringStarted(now, n)
	// Serve whoever got displaced capacity back.
	for _, m := range ring.Members {
		s.tryServe(s.peers[m.Peer])
	}
}

// abortRing terminates any sessions already created for a ring that failed
// mid-construction.
func (s *Sim) abortRing(rs *ringState) {
	rs.dissolved = true
	for _, sess := range rs.sessions {
		s.terminateSession(sess, false)
	}
}

// --- sessions ------------------------------------------------------------

func (s *Sim) startSession(src, dst *peerState, obj catalog.ObjectID, ringSize int, rs *ringState, entry *request) *session {
	sess := s.newSession()
	sess.src = src.id
	sess.dst = dst.id
	sess.dstClass = dst.class
	sess.object = obj
	sess.ringSize = ringSize
	sess.ring = rs
	sess.entry = entry
	sess.dl = dst.pendingFor(obj)
	sess.startAt = s.q.Now()
	entry.session = sess
	s.adj[src.id].ok = false
	sess.dl.sessions = append(sess.dl.sessions, sess)
	src.uploads = append(src.uploads, sess)
	dst.downloads = append(dst.downloads, sess)
	s.blocks.Schedule(arrival{sess: sess, gen: sess.gen})
	return sess
}

// arrival is a block-lane entry: the next block of sess, stamped with the
// session's generation when it was scheduled. terminateSession advances the
// generation, so the arrival of a closed session — or of a recycled one's
// earlier life — finds a stamp that no longer matches, and is dead.
type arrival struct {
	sess *session
	gen  uint64
}

// onBlock is the block lane's callback: one block of a transfer arrives. It
// reports whether the arrival was live (and so counts as an event). The
// per-block hot path neither allocates nor sifts a heap, and reaps only when
// an earlier event retired something.
func (s *Sim) onBlock(now float64, a arrival) bool {
	sess := a.sess
	if sess.gen != a.gen {
		return false
	}
	if len(s.deadSess) > 0 || len(s.deadReq) > 0 {
		s.reap()
	}
	sess.sent += s.cfg.BlockKbits
	dl := sess.dl
	dl.receivedKbits += s.cfg.BlockKbits
	s.col.blockReceived(now, sess.dstClass, s.cfg.BlockKbits)
	if s.cfg.Ranker != nil {
		s.cfg.Ranker.OnTransfer(sess.src, sess.dst, s.cfg.BlockKbits)
	}
	if dl.receivedKbits >= s.cfg.ObjectKbits {
		s.completeDownload(s.peers[sess.dst], dl)
		return true
	}
	s.blocks.Schedule(a)
	return true
}

// terminateSession closes one transfer; if it belongs to a ring the whole
// ring dissolves (a ring lives only while every member keeps transferring).
// reschedule triggers non-exchange service on the freed slot; it is false
// while a ring is being assembled or torn down en bloc.
func (s *Sim) terminateSession(sess *session, reschedule bool) {
	if sess.closed {
		return
	}
	sess.closed = true
	sess.gen++ // its pending block arrival is dead
	src := s.peers[sess.src]
	src.uploads = removeSession(src.uploads, sess)
	dst := s.peers[sess.dst]
	dst.downloads = removeSession(dst.downloads, sess)
	sess.dl.sessions = removeSession(sess.dl.sessions, sess)
	if sess.entry != nil && sess.entry.session == sess {
		sess.entry.session = nil
		s.adj[src.id].ok = false
	}
	s.col.sessionDone(s.q.Now(), sess)
	s.deadSess = append(s.deadSess, sess)
	if sess.ring != nil && !sess.ring.dissolved {
		s.dissolveRing(sess.ring, reschedule)
	}
	if reschedule {
		s.tryServe(src)
	}
}

func (s *Sim) dissolveRing(rs *ringState, reschedule bool) {
	if rs.dissolved {
		return
	}
	rs.dissolved = true
	// Iterating rs.sessions directly is safe: terminateSession unlinks a
	// session from its peers and download but never mutates the ring's own
	// slice, and retired sessions stay readable until the next event's reap.
	for _, sess := range rs.sessions {
		s.terminateSession(sess, false)
	}
	if reschedule {
		for _, sess := range rs.sessions {
			s.tryServe(s.peers[sess.src])
		}
	}
}

// --- download completion ---------------------------------------------------

func (s *Sim) completeDownload(p *peerState, dl *download) {
	now := s.q.Now()
	s.col.downloadDone(now, p.class, (now-dl.requestedAt)/60)

	// Ordering matters: withdraw the requests, clear the pending state and
	// register the new holding first, so any scheduling triggered by the
	// teardown below sees a consistent world in which this download is
	// finished. The withdrawal comes first: a queued request's requester
	// still wants its object (adjCache).
	s.withdrawRequests(p, dl)
	s.removePending(p, dl.object)
	s.addObject(p, dl.object)
	if p.sharing {
		s.addHolder(dl.object, p.id)
	}
	// Snapshot the feeding sessions before termination mutates dl.sessions
	// underneath us. sessScratch is free here: its other users (evictFrom,
	// DisconnectPeer) are never on the stack when a download completes.
	feeds := append(s.sessScratch[:0], dl.sessions...)
	s.sessScratch = feeds
	for _, sess := range feeds {
		s.terminateSession(sess, true)
	}
	if p.sharing {
		s.announceNewHolding(p, dl.object)
	}
	s.issueRequests(p)
	// An adaptive peer that is no longer starved stops contributing. The
	// check runs after issueRequests: freshly issued downloads have
	// requestedAt == now and cannot count as starved.
	if p.strat.Adaptive && p.sharing && !s.anyStarvedPending(p, now) {
		s.stopContributing(p)
	}
}

// announceNewHolding lets servers that p still has live requests with learn
// that p now holds obj, enabling fresh pairwise exchanges ("each peer
// regularly examines its incoming request queue" in the paper; here the
// examination is event-driven).
//
// Iterating pending and requestedFrom directly is safe: the exchange
// attempts below can append to requestedFrom (ring-implicit requests) but
// nothing on their call path removes a pending download or an entry of
// requestedFrom, and range evaluates each slice once — appends land beyond
// the captured length, exactly as with the defensive copies this replaced.
func (s *Sim) announceNewHolding(p *peerState, obj catalog.ObjectID) {
	for _, dl := range p.pending {
		for _, srvID := range dl.requestedFrom {
			srv := s.peers[srvID]
			if !srv.online {
				continue
			}
			srvDl := srv.pendingFor(obj)
			if srvDl == nil {
				continue
			}
			srvDl.addProvider(p.id)
			s.tryExchange(srv, srv.wantFor(srvDl), &core.Edge{Peer: p.id, Object: dl.object})
		}
	}
}

// --- non-exchange service ---------------------------------------------------

// tryServe grants free upload slots to waiting requests, enforcing the
// paper's service rule: a non-exchange transfer starts only when no feasible
// exchange exists ("no other request in the IRQ is both an exchange transfer
// and satisfies the capacity condition"). Non-exchange order is by the
// configured ranker, or longest-waiting-first by default.
func (s *Sim) tryServe(p *peerState) {
	if !p.online || !p.sharing {
		return
	}
	// Exchanges claim free capacity first.
	for p.hasFreeUploadSlot() {
		if !s.tryExchange(p, p.wants(), nil) {
			break
		}
	}
	for p.hasFreeUploadSlot() {
		e := s.pickWaiting(p)
		if e == nil {
			break
		}
		s.startSession(p, s.peers[e.requester], e.object, 1, nil, e)
	}
}

func (s *Sim) pickWaiting(p *peerState) *request {
	now := s.q.Now()
	var best *request
	var bestScore float64
	for _, e := range p.irq {
		if e.session != nil || !p.has(e.object) {
			continue // served, or evicted since registration
		}
		if !s.peers[e.requester].hasFreeDownloadSlot(s.dlSlots) {
			continue
		}
		var score float64
		if s.cfg.Ranker != nil {
			score = s.cfg.Ranker.Score(p.id, e.requester, now-e.arrival)
		} else {
			score = now - e.arrival
		}
		if best == nil || score > bestScore {
			best, bestScore = e, score
		}
	}
	return best
}

// --- storage management -----------------------------------------------------

// evictionSweep implements the paper's periodic storage pruning: peers over
// capacity remove random objects, postponing any object used in an ongoing
// exchange; deleting an object terminates its non-exchange uploads.
func (s *Sim) evictionSweep(float64) {
	for _, p := range s.peers {
		if !p.online || p.store.Len() <= p.storeCap {
			continue
		}
		s.evictFrom(p, p.store.Len()-p.storeCap)
	}
	s.after(s.cfg.EvictionInterval, s.evictionSweep)
}

func (s *Sim) evictFrom(p *peerState, excess int) {
	// Candidates are every stored object not currently given away in an
	// exchange; the uploads slice is bounded by the slot count, so scanning
	// it per object beats building a lookup set. The store iterates in
	// ascending id order, which is the deterministic candidate order the
	// shuffle's RNG draws depend on.
	cands := s.objScratch[:0]
	p.store.ForEach(func(o catalog.ObjectID) bool {
		if !p.uploadsInExchange(o) {
			cands = append(cands, o)
		}
		return true
	})
	s.objScratch = cands
	s.r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if excess > len(cands) {
		excess = len(cands)
	}
	for _, o := range cands[:excess] {
		// Re-check exchange use at eviction time, not only at candidate
		// selection: terminating an upload below reschedules service, which
		// can start a new exchange ring that gives away an object later in
		// this candidate list. Evicting it anyway would leave an exchange
		// session uploading an object the peer no longer stores (a
		// mutation-during-iteration bug inherited from the seed engine; see
		// TestEvictionWithActiveUploads). The paper postpones "any object
		// used in an ongoing exchange", so postpone it here too.
		if p.uploadsInExchange(o) {
			continue
		}
		s.removeObject(p, o)
		if p.sharing {
			s.removeHolder(o, p.id)
			// Scrub stale provider knowledge so ring searches stop closing
			// through a holder that no longer exists.
			if ws := s.wanters.Get(o); ws != nil {
				ws.ForEach(func(w core.PeerID) bool {
					if dl := s.peers[w].pendingFor(o); dl != nil {
						dl.providers = slices.DeleteFunc(dl.providers, func(q core.PeerID) bool { return q == p.id })
					}
					return true
				})
			}
		}
		// Snapshot uploads: terminations mutate p.uploads underneath us.
		ups := append(s.sessScratch[:0], p.uploads...)
		s.sessScratch = ups
		for _, up := range ups {
			if up.object == o && up.ringSize == 1 {
				s.terminateSession(up, true)
			}
		}
	}
}

// --- churn / failure injection ----------------------------------------------

// DisconnectPeer takes a peer offline: every transfer it participates in
// terminates (dissolving its rings), its queued requests are dropped, and
// its holdings leave the lookup index. Used by failure-injection tests and
// the departure scenarios of Section III-A ("some peers may have gone
// offline, or crashed").
func (s *Sim) DisconnectPeer(id core.PeerID) {
	p := s.peers[id]
	if !p.online {
		return
	}
	p.online = false
	// Withdraw our registered requests from other peers' queues first, oldest
	// download first, so the searches and service the terminations below
	// trigger never see a request of an absent peer.
	for len(p.pending) > 0 {
		dl := p.pending[0]
		s.withdrawRequests(p, dl)
		s.removePending(p, dl.object)
	}
	// Snapshot both transfer lists: terminations mutate them underneath us,
	// and a ring dissolution can terminate several of p's sessions at once.
	ups := append(s.sessScratch[:0], p.uploads...)
	s.sessScratch = ups
	for _, sess := range ups {
		s.terminateSession(sess, true)
	}
	downs := append(s.sessScratch[:0], p.downloads...)
	s.sessScratch = downs
	for _, sess := range downs {
		s.terminateSession(sess, true)
	}
	// Every entry is unserved by now (the upload terminations above released
	// them).
	s.dropQueue(p)
	if p.sharing {
		s.unindexStoredObjects(p)
	}
	if p.retryEv.Valid() {
		s.q.Cancel(p.retryEv)
		p.retryEv = eventq.Handle{}
	}
}

// RejoinPeer brings a disconnected peer back online with its stored content.
func (s *Sim) RejoinPeer(id core.PeerID) {
	p := s.peers[id]
	if p.online {
		return
	}
	p.online = true
	if p.sharing {
		s.indexStoredObjects(p)
	}
	s.issueRequests(p)
}

// indexStoredObjects enters every object in p's store into the holder
// index, and unindexStoredObjects removes them — the shared step of going
// online/offline and of flipping between contributing and free-riding.
func (s *Sim) indexStoredObjects(p *peerState) {
	p.store.ForEach(func(o catalog.ObjectID) bool {
		s.addHolder(o, p.id)
		return true
	})
}

func (s *Sim) unindexStoredObjects(p *peerState) {
	p.store.ForEach(func(o catalog.ObjectID) bool {
		s.removeHolder(o, p.id)
		return true
	})
}

// --- strategy machinery ------------------------------------------------------

// adaptiveCheck fires one patience window after an adaptive peer issued a
// download: if that same download is still pending, the peer is being
// starved and starts contributing.
func (s *Sim) adaptiveCheck(p *peerState, dl *download) {
	if !p.online || p.sharing {
		return
	}
	if p.pendingFor(dl.object) != dl {
		return // completed or abandoned in the meantime
	}
	s.startContributing(p)
}

// anyStarvedPending reports whether any of the peer's pending downloads has
// been waiting longer than the patience window.
func (s *Sim) anyStarvedPending(p *peerState, now float64) bool {
	patience := s.cfg.adaptivePatience()
	for _, dl := range p.pending {
		if now-dl.requestedAt >= patience {
			return true
		}
	}
	return false
}

// startContributing turns a non-sharing peer into a contributor: its
// holdings enter the lookup index, so requesters (and ring searches) can
// find it from now on.
func (s *Sim) startContributing(p *peerState) {
	if p.sharing {
		return
	}
	p.sharing = true
	s.col.classFlips[p.class]++
	s.indexStoredObjects(p)
}

// stopContributing reverts a peer to free-riding: its holdings leave the
// lookup index, its running uploads terminate (dissolving any rings they
// anchor), and its queued requests are dropped — requesters retry elsewhere.
func (s *Sim) stopContributing(p *peerState) {
	if !p.sharing {
		return
	}
	p.sharing = false
	s.col.classFlips[p.class]++
	s.unindexStoredObjects(p)
	// Snapshot uploads: terminations mutate p.uploads underneath us. The
	// scratch is free here: completeDownload's own snapshot use has finished
	// by the time it calls this, and no other user is on the stack.
	ups := append(s.sessScratch[:0], p.uploads...)
	s.sessScratch = ups
	for _, up := range ups {
		s.terminateSession(up, true)
	}
	s.dropQueue(p)
}

// whitewash executes one identity churn for a whitewashing peer: it departs
// (dropping queue positions, transfers, and pending downloads), any
// identity-keyed ranker state is wiped, and it rejoins fresh — then the next
// churn is armed. The paper's history-free exchange mechanism is indifferent
// to this; history-based rankers forget everything they knew about the peer.
func (s *Sim) whitewash(p *peerState) {
	if p.online {
		s.DisconnectPeer(p.id)
		if rs, ok := s.cfg.Ranker.(WhitewashResetter); ok {
			rs.OnWhitewash(p.id)
		}
		s.col.whitewashes[p.class]++
		s.RejoinPeer(p.id)
	}
	s.after(s.cfg.whitewashInterval(), func(float64) { s.whitewash(p) })
}

// PeerIsSharing reports whether a peer is currently contributing (exported
// for tests/examples; adaptive peers toggle this at runtime).
func (s *Sim) PeerIsSharing(id core.PeerID) bool { return s.peers[id].sharing }

// PeerClassLabel reports the strategy-class label of a peer.
func (s *Sim) PeerClassLabel(id core.PeerID) string { return s.peers[id].strat.Name }

// SearchOnce runs one ring search rooted at the given peer under an
// arbitrary policy without mutating any state. It reports whether a
// candidate ring was found. Exposed for search-cost benchmarks.
func (s *Sim) SearchOnce(id core.PeerID, pol core.Policy) bool {
	p := s.peers[id]
	if len(p.irq) == 0 || len(p.pending) == 0 {
		return false
	}
	_, _, _, ok := s.graph.FindRing(id, p.wants(), pol)
	return ok
}

// NumPeers returns the population size.
func (s *Sim) NumPeers() int { return len(s.peers) }
