package sim

import (
	"fmt"
	"math"
	"slices"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/eventq"
	"barter/internal/index"
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
// below serves that contract: ties at an instant follow one declared order
// (every block at or before it has arrived, then the downloads due at it
// complete as one batch in creation order, every one's books before any
// one's teardown, then the heap's events fire in schedule order;
// blocks.go), every index iterates in ascending peer-id order
// (candidate order feeds the RNG draws), and no behavior ever depends on map
// iteration order, pointer values, or wall-clock time. Performance work must
// preserve all three properties; see the package tests that pin them.
type Sim struct {
	cfg Config
	q   *eventq.Queue
	// The clock is whole nanoseconds: q's float64 instants are exact
	// below 2^53 ns (Validate), and every instant stored here is a
	// time.Duration. Block arrivals are counted, not scheduled (blocks.go):
	// a session's k-th lands k·delta after it starts, an object is objBlocks
	// blocks, and dues holds every download that can complete under the
	// instant it does, the simulator's only work beside the heap. arrived
	// counts the blocks credited; dlSeq stamps downloads in creation order,
	// which orders those due at one instant.
	delta     time.Duration
	objBlocks int
	arrived   uint64
	dues      dueHeap
	dlSeq     uint64
	r         *rng.RNG
	cat       *catalog.Catalog
	peers     []*peerState
	// holders indexes object -> online sharing peers storing it; wanters
	// indexes object -> peers with a pending download for it, so evictions
	// can scrub stale provider sets. Both are one set per object id (ids are
	// dense, sized in New), and sets iterate in ascending peer-id order.
	holders []index.Set[core.PeerID]
	wanters []index.Set[core.PeerID]
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
	nextScratch []time.Duration
	dueScratch  []*download

	// Free lists for the per-transfer bookkeeping objects. Retired objects
	// park on the dead lists until reap, which runs at the start of the next
	// event: within one event, any snapshot of sessions, requests or
	// downloads taken before a termination stays readable.
	freeSess []*session
	freeReq  []*request
	freeDl   []*download
	deadSess []*session
	deadReq  []*request
	deadDl   []*download
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
	if cfg.Trace != nil {
		for i, ev := range cfg.Trace.Events {
			if (ev.Kind == workload.KindHold || ev.Kind == workload.KindRequest) && ev.Obj >= cat.NumObjects() {
				return nil, fmt.Errorf("sim: trace event %d: object %d outside the catalog's %d", i, ev.Obj, cat.NumObjects())
			}
		}
	}
	// Population: class counts apportioned over the mix, assigned by random
	// permutation so peer ids carry no class information. This draw must stay
	// the first consumer of the engine stream so PeerClasses stays aligned
	// with New; for a legacy mix it consumes exactly the permutation the
	// historical free-rider draw did.
	mix := cfg.EffectiveMix()
	classOf := classAssignment(engRNG, mix, cfg.NumPeers)

	s := &Sim{
		cfg:       cfg,
		q:         eventq.New(),
		r:         engRNG,
		cat:       cat,
		holders:   make([]index.Set[core.PeerID], cat.NumObjects()),
		wanters:   make([]index.Set[core.PeerID], cat.NumObjects()),
		col:       newCollector(dur(cfg.Duration*cfg.WarmupFrac), mix, cfg.BlockKbits),
		ulSlots:   cfg.UploadSlots(),
		dlSlots:   cfg.DownloadSlots(),
		mix:       mix,
		delta:     dur(cfg.BlockKbits / cfg.SlotKbps),
		objBlocks: int(math.Ceil(cfg.ObjectKbits / cfg.BlockKbits)),
	}
	s.graph = core.Graph{
		Adj:     s.adjacency,
		Budget:  cfg.SearchBudget,
		Fanout:  searchFanout,
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
					s.holders[o].Add(p.id)
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
			s.after(dur(engRNG.Float64()*60), func(time.Duration) { s.issueRequests(s.peers[id]) })
		}
	}
	s.after(dur(cfg.EvictionInterval), s.evictionSweep)
	// Whitewash clocks, jittered so a cohort does not churn in lockstep.
	// Scheduling these after the burst loop keeps the RNG stream prefix of
	// legacy mixes (which have no whitewashers) untouched.
	for _, p := range s.peers {
		if p.strat.Whitewash {
			s.after(dur(cfg.whitewashInterval()*(0.5+engRNG.Float64())), func(time.Duration) { s.whitewash(p) })
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

// now is the clock: q's instants are whole nanoseconds.
func (s *Sim) now() time.Duration { return time.Duration(s.q.Now()) }

// RunUntil advances virtual time to horizon, in seconds.
func (s *Sim) RunUntil(horizon float64) {
	h := dur(horizon)
	for s.step(h) {
	}
	s.q.AdvanceTo(float64(h))
}

// step fires the next piece of work if it is due by horizon: completions
// win ties with heap events. q.Next is +Inf on an empty queue, so it is
// compared as a float and never converted.
func (s *Sim) step(horizon time.Duration) bool {
	if at := s.q.Next(); len(s.dues) == 0 || at < float64(s.dues[0].due) {
		return at <= float64(horizon) && s.q.Step()
	}
	if s.dues[0].due > horizon {
		return false
	}
	s.completeDue()
	return true
}

// Run executes the configured horizon and returns the collected result. It
// must be called at most once.
func (s *Sim) Run() (*Result, error) {
	if s.ran {
		return nil, fmt.Errorf("sim: Run called twice")
	}
	s.ran = true
	s.RunUntil(s.cfg.Duration)
	return s.result(), nil
}

// result credits every open session up to now and finalizes it, so
// long-lived transfers are represented in the session statistics, then
// collects the run's Result. Every block that arrived is one event.
func (s *Sim) result() *Result {
	for _, p := range s.peers {
		for _, up := range p.uploads {
			if !up.closed {
				s.credit(up)
				s.col.sessionDone(s.now(), up)
				up.closed = true
			}
		}
	}
	res := s.col.result(s.cfg.Policy.String(), seconds(s.now()), s.q.Fired()+s.arrived, s.mix.Counts(len(s.peers)))
	res.Blocks, res.HeapEvents = s.arrived, s.q.Fired()
	return res
}

// reap recycles the sessions, requests and downloads retired during the
// previous event. It runs at the start of every event that might see them
// (and nowhere else), so within one event any snapshot of live objects taken
// before a termination remains readable, and a recycled object can never be
// observed through a stale pointer held by in-flight iteration. A download
// keeps its slices' capacity, pointer slots cleared.
func (s *Sim) reap() {
	recycle(&s.deadSess, &s.freeSess, func(sess *session) { *sess = session{} })
	recycle(&s.deadReq, &s.freeReq, func(req *request) { *req = request{} })
	recycle(&s.deadDl, &s.freeDl, func(dl *download) {
		clear(dl.reqs[:cap(dl.reqs)])
		clear(dl.sessions[:cap(dl.sessions)])
		*dl = download{providers: dl.providers[:0], requestedFrom: dl.requestedFrom[:0], reqs: dl.reqs[:0], sessions: dl.sessions[:0]}
	})
}

// recycle resets every object on dead and moves it to free.
func recycle[T any](dead, free *[]*T, reset func(*T)) {
	for i, v := range *dead {
		reset(v)
		*free = append(*free, v)
		(*dead)[i] = nil
	}
	*dead = (*dead)[:0]
}

// take pops a recycled object off free, or allocates a zero one.
func take[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	v := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return v
}

func (s *Sim) newRequest(requester core.PeerID, obj catalog.ObjectID, arrival time.Duration) *request {
	req := take(&s.freeReq)
	req.requester, req.object, req.arrival = requester, obj, arrival
	return req
}

// retireRequest parks a dequeued request for recycling at the next event.
func (s *Sim) retireRequest(req *request) { s.deadReq = append(s.deadReq, req) }

// after schedules fn delay from now; scheduling with non-negative delay
// cannot fail, so a failure is a programming error worth crashing on. Every
// event entry point reaps the previous event's retirements first. q speaks
// float64: whole nanoseconds, exact below 2^53.
func (s *Sim) after(delay time.Duration, fn func(now time.Duration)) {
	if _, err := s.q.After(float64(delay), eventq.Func(func(now float64) {
		s.reap()
		fn(time.Duration(now))
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
	s.wanters[dl.object].Add(p.id)
}

// removePending unregisters p's download dl (completed or abandoned), takes
// it out of the due heap for good and retires it for recycling at the next
// event. p's requests for it must already be withdrawn from every server's
// queue.
func (s *Sim) removePending(p *peerState, dl *download) {
	p.pending = remove(p.pending, dl)
	s.moveFree(p, dl.object, +1)
	dl.done = true
	s.fileDue(dl)
	s.deadDl = append(s.deadDl, dl)
	s.wanters[dl.object].Remove(p.id)
}

// withdrawRequests drops dl's queued requests from their servers' queues.
// It runs before dl leaves its peer's pending list, and on departure before p's
// transfers end, so no search or service decision ever sees a request
// nobody wants.
func (s *Sim) withdrawRequests(dl *download) {
	for i, req := range dl.reqs {
		srv := s.peers[req.server]
		srv.irq = remove(srv.irq, req)
		s.adj[srv.id].ok = false
		s.retireRequest(req)
		dl.reqs[i] = nil
	}
	dl.reqs = dl.reqs[:0]
}

// dropQueue discards p's whole incoming request queue; requesters will be
// served elsewhere or retry. Every entry's requester is online with the
// download pending (adjCache), so each is unlinked from that download.
func (s *Sim) dropQueue(p *peerState) {
	for i, e := range p.irq {
		dl := s.peers[e.requester].pendingFor(e.object)
		dl.reqs = remove(dl.reqs, e)
		s.retireRequest(e)
		p.irq[i] = nil
	}
	p.irq = p.irq[:0]
	s.adj[p.id].ok = false
}

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
		// frame can recurse into another attemptRequest (a download
		// completes only in its own turn of Step, never synchronously).
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
	h, err := s.q.After(float64(dur(s.cfg.RetryInterval)), p.retry)
	if err != nil {
		panic(fmt.Sprintf("sim: internal scheduling error: %v", err))
	}
	p.retryEv = h
}

// startDownload creates the download, performs the lookup-bounded provider
// discovery, runs the paper's before-transmission ring search, and registers
// requests with a subset of providers.
func (s *Sim) startDownload(p *peerState, obj catalog.ObjectID, cands []core.PeerID) {
	now := s.now()
	discovered := s.sampleSubset(cands, lookupMax)
	s.dlSeq++
	dl := take(&s.freeDl)
	dl.peer, dl.seq, dl.object, dl.requestedAt, dl.dueAt = p.id, s.dlSeq, obj, now, -1
	dl.providers = append(dl.providers, discovered...) // distinct holders; discovered is the caller's scratch
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
		// pending after the patience window. The check names the download
		// by its seq: the download itself is recycled once retired.
		seq := dl.seq
		s.after(dur(s.cfg.adaptivePatience()), func(time.Duration) { s.adaptiveCheck(p, obj, seq) })
	}

	// "Prior to transmission of a request for object o, the peer inspects
	// the entire Request Tree to see if any peer provides o."
	s.tryExchange(p, p.wantFor(dl), nil)

	for _, h := range discovered[:min(requestFanout, len(discovered))] {
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
	if dl.requestAt(server.id) != nil {
		return // one registered request per (peer, object)
	}
	if len(server.irq) >= s.cfg.IRQCapacity {
		s.col.irqRejected++
		return
	}
	s.pushIRQ(server, dl, s.newRequest(p.id, dl.object, s.now()))
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
	if !s.validateRing(ring) {
		s.col.ringFailures++
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
// download capacity (or a preemptible non-exchange upload). It reports
// whether the ring is viable.
func (s *Sim) validateRing(ring *core.Ring) bool {
	n := ring.Size()
	for i, m := range ring.Members {
		pm := s.peers[m.Peer]
		np := s.peers[ring.Members[(i+1)%n].Peer]
		if !pm.online || !pm.sharing || !pm.has(m.Gives) || np.pendingFor(m.Gives) == nil {
			return false
		}
		if !pm.hasFreeUploadSlot() && (s.cfg.DisablePreemption || pm.preemptibleUpload() == nil) {
			return false
		}
		dup := s.findSession(pm, np, m.Gives)
		if dup != nil && dup.ringSize > 1 || dup == nil && !np.hasFreeDownloadSlot(s.dlSlots) {
			return false
		}
	}
	return true
}

// startRing replaces any duplicate non-exchange transfers on the ring's
// links, reclaims upload slots by preemption where needed, and starts the
// ring's sessions. Validation has already succeeded.
func (s *Sim) startRing(ring *core.Ring) {
	now := s.now()
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
		dl := dst.pendingFor(m.Gives)
		entry := dl.requestAt(src.id)
		if entry == nil {
			// The ring closes through a provider the root never transmitted
			// a request to; register the implicit request now (it is served
			// immediately, bypassing queue capacity).
			entry = s.newRequest(dst.id, m.Gives, now)
			s.pushIRQ(src, dl, entry)
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
	sess := take(&s.freeSess)
	sess.src = src.id
	sess.dst = dst.id
	sess.dstClass = dst.class
	sess.object = obj
	sess.ringSize = ringSize
	sess.ring = rs
	sess.entry = entry
	sess.dl = dst.pendingFor(obj)
	sess.startAt = s.now()
	entry.session = sess
	s.adj[src.id].ok = false
	sess.dl.sessions = append(sess.dl.sessions, sess)
	src.uploads = append(src.uploads, sess)
	dst.downloads = append(dst.downloads, sess)
	s.fileDue(sess.dl)
	return sess
}

// completeDue completes every download due at the first due instant, in
// (due, seq) order, in two phases. The first keeps the books only: each is
// recorded, withdraws its requests (a queued request's requester still wants
// its object: adjCache) and leaves pending, which credits its feeders
// (fileDue), and its object is stored and indexed. Then each one's teardown
// runs in the same order (completeDownload), so no service or search at
// this instant sees a download that is already whole.
func (s *Sim) completeDue() {
	now := s.dues[0].due
	s.q.AdvanceTo(float64(now))
	s.reap()
	batch := s.dueScratch[:0]
	for len(s.dues) > 0 && s.dues[0].due == now {
		dl := s.dues[0].dl
		p := s.peers[dl.peer]
		s.col.downloadDone(now, p.class, seconds(now-dl.requestedAt)/60)
		s.withdrawRequests(dl)
		s.removePending(p, dl)
		s.addObject(p, dl.object)
		if p.sharing {
			s.holders[dl.object].Add(p.id)
		}
		batch = append(batch, dl)
	}
	s.dueScratch = batch
	for _, dl := range batch {
		s.completeDownload(s.peers[dl.peer], dl)
	}
}

// terminateSession closes one transfer; if it belongs to a ring the whole
// ring dissolves (a ring lives only while every member keeps transferring).
// reschedule triggers non-exchange service on the freed slot; it is false
// while a ring is being assembled or torn down en bloc.
func (s *Sim) terminateSession(sess *session, reschedule bool) {
	if sess.closed {
		return
	}
	s.credit(sess)
	sess.closed = true
	src := s.peers[sess.src]
	src.uploads = remove(src.uploads, sess)
	dst := s.peers[sess.dst]
	dst.downloads = remove(dst.downloads, sess)
	sess.dl.sessions = remove(sess.dl.sessions, sess)
	s.fileDue(sess.dl)
	if sess.entry != nil && sess.entry.session == sess {
		sess.entry.session = nil
		s.adj[src.id].ok = false
	}
	s.col.sessionDone(s.now(), sess)
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

// completeDownload is a completed download's teardown: its feeders end (no
// service can start a new one, since it is no longer pending), its peer
// announces the new holding and tops up its requests, and an adaptive peer
// that is no longer starved stops contributing. The last check runs after
// issueRequests: freshly issued downloads have requestedAt == now and cannot
// count as starved.
func (s *Sim) completeDownload(p *peerState, dl *download) {
	for len(dl.sessions) > 0 {
		s.terminateSession(dl.sessions[0], true)
	}
	if p.sharing {
		s.announceNewHolding(p, dl.object)
	}
	s.issueRequests(p)
	if p.strat.Adaptive && p.sharing && !s.anyStarvedPending(p, s.now()) {
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

// pickWaiting returns the waiting request p serves next. Under a ranker it
// credits the server's open sessions, and each candidate requester's before
// scoring it: Score reads only those two peers' books (Ranker).
func (s *Sim) pickWaiting(p *peerState) *request {
	now := s.now()
	ranked := s.cfg.Ranker != nil
	if ranked {
		s.creditPeer(p)
	}
	var best *request
	var bestScore float64
	for _, e := range p.irq {
		if e.session != nil || !p.has(e.object) {
			continue // served, or evicted since registration
		}
		q := s.peers[e.requester]
		if !q.hasFreeDownloadSlot(s.dlSlots) {
			continue
		}
		var score float64
		if ranked {
			s.creditPeer(q)
			score = s.cfg.Ranker.Score(p.id, e.requester, seconds(now-e.arrival))
		} else {
			score = float64(now - e.arrival)
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
func (s *Sim) evictionSweep(time.Duration) {
	for _, p := range s.peers {
		if !p.online || p.store.Len() <= p.storeCap {
			continue
		}
		s.evictFrom(p, p.store.Len()-p.storeCap)
	}
	s.after(dur(s.cfg.EvictionInterval), s.evictionSweep)
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
			s.holders[o].Remove(p.id)
			// Scrub stale provider knowledge so ring searches stop closing
			// through a holder that no longer exists.
			s.wanters[o].ForEach(func(w core.PeerID) bool {
				if dl := s.peers[w].pendingFor(o); dl != nil {
					dl.providers = remove(dl.providers, p.id)
				}
				return true
			})
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
		s.withdrawRequests(dl)
		s.removePending(p, dl)
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
		s.holders[o].Add(p.id)
		return true
	})
}

func (s *Sim) unindexStoredObjects(p *peerState) {
	p.store.ForEach(func(o catalog.ObjectID) bool {
		s.holders[o].Remove(p.id)
		return true
	})
}

// --- strategy machinery ------------------------------------------------------

// adaptiveCheck fires one patience window after an adaptive peer issued a
// download of obj, stamped seq: if that same download is still pending, the
// peer is being starved and starts contributing.
func (s *Sim) adaptiveCheck(p *peerState, obj catalog.ObjectID, seq uint64) {
	if !p.online || p.sharing {
		return
	}
	if dl := p.pendingFor(obj); dl == nil || dl.seq != seq {
		return // completed or abandoned in the meantime
	}
	s.startContributing(p)
}

// anyStarvedPending reports whether any of the peer's pending downloads has
// been waiting longer than the patience window.
func (s *Sim) anyStarvedPending(p *peerState, now time.Duration) bool {
	patience := dur(s.cfg.adaptivePatience())
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
	// scratch is free here: no other user is on the stack.
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
	s.after(dur(s.cfg.whitewashInterval()), func(time.Duration) { s.whitewash(p) })
}

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
