package sim

// Sharded simulation: one world partitioned across P event-loop domains run
// in parallel under conservative time windows.
//
// Peers are assigned to domains by id modulo Shards. Each domain is a full
// Sim over its local peers — its own eventq heap, its own rng.Stream keyed
// by (seed, domain), its own holders/wanters indexes and collector — built
// against an identically-seeded catalog, so every domain agrees on the
// object universe. Domains advance in lockstep epochs of one conservative
// window W (the minimum cross-partition latency, by default one block
// service time): within an epoch domains share nothing and run freely in
// parallel; at the epoch barrier the coordinator, single-threaded, drains
// the cross-partition mailboxes in (source-domain, sequence) order, then
// republishes each domain's holder directory. Everything a domain reads
// during an epoch is either owned by it or frozen at the last barrier, so
// results are a pure function of (config, seed, shards) — never of worker
// count or goroutine scheduling.
//
// Cross-partition traffic is four message kinds: xreq registers demand at a
// remote holder, xpair forms a cross-domain exchange pair, xblock delivers
// one block to the remote requester, and xcancel releases a remote upload.
// A remote fetch that stops making progress (its server departed, evicted
// the object, or dropped the demand) is abandoned by a requester-side stall
// timeout — no failure-notification protocol is needed. See
// docs/DETERMINISM.md for the tie-breaking rules and docs/ARCHITECTURE.md
// for the domain/coordinator diagram.

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/index"
	"barter/internal/perfstats"
	"barter/internal/rng"
)

// Engine is the common driving surface of the single-threaded (New) and
// sharded (NewSharded) engines; NewEngine picks by cfg.Shards.
type Engine interface {
	Run() (*Result, error)
	NumPeers() int
}

// NewEngine constructs the engine selected by cfg.Shards: the single-
// threaded Sim for Shards <= 1 (byte-identical to every run before sharding
// existed), the partitioned parallel engine otherwise. Configs that are
// fundamentally single-loop — trace replay (one recorded global event
// order), a stateful Ranker (shared mutable state across the whole
// population), or too few peers to populate every domain — fall back to the
// single-threaded engine instead of erroring, so a blanket -shards flag
// works across a whole experiment registry; the fallback is itself
// deterministic (such configs produce the same output at every shard
// count). Call NewSharded directly to make those conditions an error.
func NewEngine(cfg Config) (Engine, error) {
	if cfg.Shards > 1 {
		if shardable(cfg) {
			return NewSharded(cfg)
		}
		cfg.Shards = 0
	}
	return New(cfg)
}

// shardable reports whether cfg can run on the partitioned engine — the
// complement of the conditions Validate rejects for Shards > 1.
func shardable(cfg Config) bool {
	return cfg.NumPeers >= 2*cfg.Shards && cfg.Trace == nil && cfg.Ranker == nil
}

// shardDomainLabel keys every domain's engine stream:
// rng.Stream(seed, shardDomainLabel, domain).
const shardDomainLabel uint64 = 0x73686172 // "shar"

// xkind enumerates the cross-partition message kinds.
type xkind uint8

const (
	// xreq registers remote demand: requester (another domain) asks server
	// to upload object.
	xreq xkind = iota
	// xpair asks the requester's domain to start the reciprocal upload of
	// aux, forming a cross-domain exchange pair.
	xpair
	// xblock delivers one block of kbits from server to requester.
	xblock
	// xcancel tells the server's domain to drop the (requester, object)
	// demand and terminate its remote upload, if any.
	xcancel
)

// xmsg is one cross-partition event. requester is always the downloading
// peer and server the uploading peer, both as global ids, whatever direction
// the message itself travels.
type xmsg struct {
	kind      xkind
	seq       uint64 // per-source-domain emission sequence
	requester core.PeerID
	server    core.PeerID
	object    catalog.ObjectID
	aux       catalog.ObjectID // xpair: the object the requester gives back
	kbits     float64          // xblock payload
}

// xdemand is queued cross-domain demand at a serving peer.
type xdemand struct {
	requester core.PeerID // global id
	object    catalog.ObjectID
	arrival   float64
}

// shardCtx is one domain's view of the sharded run: its coordinates, its
// outboxes, and read-only snapshots of every domain's holder directory.
type shardCtx struct {
	domain      int
	shards      int
	globalPeers int
	window      float64
	stall       float64

	// out[d] is the mailbox of messages this domain emitted toward domain d
	// since the last barrier, in emission (seq) order. Only the owning
	// domain appends during an epoch; only the coordinator touches it at
	// barriers.
	out [][]xmsg
	seq uint64

	// dirs[d] is domain d's directory as of the last barrier (read-only
	// during an epoch); peerDirs is the same slice with the own slot nil, so
	// candidate merges never consult the domain's own stale snapshot.
	dirs     []*index.Directory[core.PeerID]
	peerDirs []*index.Directory[core.PeerID]
}

// global maps a local peer index of this domain to its global id.
func (sc *shardCtx) global(local core.PeerID) core.PeerID {
	return local*core.PeerID(sc.shards) + core.PeerID(sc.domain)
}

// domainOf and localOf invert the modulo partition.
func domainOf(g core.PeerID, shards int) int        { return int(g) % shards }
func localOf(g core.PeerID, shards int) core.PeerID { return g / core.PeerID(shards) }

// emit appends a message to the outbox toward dst, stamping the per-domain
// emission sequence that fixes the barrier drain order.
func (sc *shardCtx) emit(dst int, m xmsg) {
	sc.seq++
	m.seq = sc.seq
	sc.out[dst] = append(sc.out[dst], m)
}

// Sharded is the partitioned parallel engine: P domain Sims plus the
// coordinator state driving their epochs. Build with NewSharded (or
// NewEngine), drive with Run.
type Sharded struct {
	cfg         Config
	domains     []*Sim
	dirs        []*index.Directory[core.PeerID]
	window      float64
	workers     int
	classCounts []int // global class populations, mix order
	ran         bool

	// pending[src][dst] is the drain scratch one barrier swaps outboxes
	// into, recycled every epoch.
	pending [][][]xmsg

	barriers uint64
	msgs     uint64
}

// NewSharded partitions cfg.NumPeers peers across cfg.Shards domains and
// builds one Sim per domain. The global class assignment draws from the
// same stream position New uses, so PeerClasses(cfg) stays truthful for
// sharded runs too.
func NewSharded(cfg Config) (*Sharded, error) {
	if cfg.Shards < 2 {
		return nil, fmt.Errorf("sim: NewSharded requires Shards >= 2 (got %d); use New", cfg.Shards)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := cfg.Shards
	window := cfg.ShardWindowSec
	if window <= 0 {
		window = cfg.BlockKbits / cfg.SlotKbps
	}
	stall := 2 * cfg.RetryInterval
	if min := 4 * window; stall < min {
		stall = min
	}
	workers := cfg.ShardWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > p {
		workers = p
	}

	mix := cfg.effectiveMix()
	classOf := classAssignment(rng.New(cfg.Seed).Split(2), mix, cfg.NumPeers)
	ss := &Sharded{
		cfg:         cfg,
		domains:     make([]*Sim, p),
		dirs:        make([]*index.Directory[core.PeerID], p),
		window:      window,
		workers:     workers,
		classCounts: mix.Counts(cfg.NumPeers),
		pending:     make([][][]xmsg, p),
	}
	for d := 0; d < p; d++ {
		dcfg := cfg
		dcfg.NumPeers = (cfg.NumPeers - d + p - 1) / p // peers with id ≡ d (mod p)
		localClass := make([]int, dcfg.NumPeers)
		for l := range localClass {
			localClass[l] = classOf[l*p+d]
		}
		// Every domain builds the catalog from the same derived stream, so
		// all domains agree on the object universe; the engine stream is
		// keyed by (seed, domain) and independent of every other domain's
		// draw count.
		cat, err := catalog.New(cfg.Catalog, rng.New(cfg.Seed).Split(1))
		if err != nil {
			return nil, fmt.Errorf("sim: build catalog: %w", err)
		}
		sc := &shardCtx{
			domain:      d,
			shards:      p,
			globalPeers: cfg.NumPeers,
			window:      window,
			stall:       stall,
			out:         make([][]xmsg, p),
			dirs:        ss.dirs,
		}
		dom, err := newSim(dcfg, cat, rng.Stream(cfg.Seed, shardDomainLabel, uint64(d)), mix, localClass, sc)
		if err != nil {
			return nil, err
		}
		ss.domains[d] = dom
		ss.pending[d] = make([][]xmsg, p)
	}
	objects := ss.domains[0].cat.NumObjects()
	for d := range ss.dirs {
		ss.dirs[d] = index.NewDirectory[core.PeerID](objects)
	}
	for _, dom := range ss.domains {
		view := make([]*index.Directory[core.PeerID], p)
		copy(view, ss.dirs)
		view[dom.sc.domain] = nil
		dom.sc.peerDirs = view
	}
	return ss, nil
}

// NumPeers returns the global population size.
func (ss *Sharded) NumPeers() int { return ss.cfg.NumPeers }

// Shards returns the domain count.
func (ss *Sharded) Shards() int { return len(ss.domains) }

// Run executes the configured horizon and returns the merged result. It
// must be called at most once.
func (ss *Sharded) Run() (*Result, error) {
	if ss.ran {
		return nil, fmt.Errorf("sim: Run called twice")
	}
	ss.ran = true
	ss.publishDirectories() // initial stores were indexed at construction
	for t := 0.0; t < ss.cfg.Duration; {
		target := t + ss.window
		if target > ss.cfg.Duration {
			target = ss.cfg.Duration
		}
		ss.runEpoch(target)
		ss.barriers++
		applied := ss.drainMailboxes()
		ss.publishDirectories()
		t = target
		// Fast-forward over empty windows: with nothing applied and nothing
		// in flight, no state changed at this barrier, so skipping to the
		// barrier just before the earliest pending event is semantics-
		// preserving — and a pure function of domain state (eventq.NextAt).
		if applied == 0 && ss.pendingMsgs() == 0 {
			next, ok := ss.earliestEvent()
			if !ok {
				break // nothing scheduled anywhere, nothing in flight
			}
			if k := math.Floor((next - t) / ss.window); k >= 1 {
				t += k * ss.window
			}
		}
	}
	// Settle every clock on the horizon (the loop may have ended early or
	// mid-skip) and finalize sessions still open there, exactly as the
	// single-threaded engine does.
	for _, dom := range ss.domains {
		dom.q.RunUntil(ss.cfg.Duration)
		for _, p := range dom.peers {
			for _, up := range p.uploads {
				if !up.closed {
					dom.col.sessionDone(dom.q.Now(), up)
					up.closed = true
				}
			}
		}
	}
	// Merge domain collectors in ascending domain order (see collector.merge
	// for why the order is part of the determinism contract).
	col := ss.domains[0].col
	events := ss.domains[0].q.Fired()
	laneEvents := ss.domains[0].q.LaneFired()
	for _, dom := range ss.domains[1:] {
		col.merge(dom.col)
		events += dom.q.Fired()
		laneEvents += dom.q.LaneFired()
	}
	res := col.result(ss.cfg.Policy.String(), ss.cfg.Duration, events, ss.classCounts)
	perfstats.AddRun(perfstats.Snapshot{
		Runs:               1,
		Events:             res.Events,
		LaneEvents:         laneEvents,
		HeapEvents:         events - laneEvents,
		RingSearches:       uint64(res.RingSearches),
		SearchNodesVisited: uint64(res.SearchNodesVisited),
		SearchWantsChecked: uint64(res.SearchWantsChecked),
		RingsStarted:       uint64(res.RingAttempts - res.RingValidationFailures),
		Domains:            uint64(len(ss.domains)),
		Barriers:           ss.barriers,
		CrossMsgs:          ss.msgs,
	})
	return res, nil
}

// runEpoch advances every domain to target on the bounded worker pool.
// Domains share nothing mutable during the epoch (each owns its event
// queue, RNG, peers, collector, and outboxes; directories are frozen), so
// any interleaving computes the same states.
func (ss *Sharded) runEpoch(target float64) {
	if ss.workers <= 1 {
		for _, dom := range ss.domains {
			dom.q.RunUntil(target)
		}
		return
	}
	sem := make(chan struct{}, ss.workers)
	var wg sync.WaitGroup
	for _, dom := range ss.domains {
		wg.Add(1)
		go func(dom *Sim) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			dom.q.RunUntil(target)
		}(dom)
	}
	wg.Wait()
}

// drainMailboxes applies every cross-partition message emitted during the
// finished epoch, single-threaded, in (destination, source-domain, sequence)
// order — for each destination, sources ascend and each source's messages
// apply in emission order. Outboxes are swapped out first: messages emitted
// while applying (cancels, pair grants) belong to the next barrier. It
// returns the number of messages applied.
func (ss *Sharded) drainMailboxes() int {
	for src, dom := range ss.domains {
		for dst := range dom.sc.out {
			ss.pending[src][dst], dom.sc.out[dst] = dom.sc.out[dst], ss.pending[src][dst][:0]
		}
	}
	applied := 0
	for dst, dom := range ss.domains {
		batch := false
		for src := range ss.domains {
			for i := range ss.pending[src][dst] {
				if !batch {
					// The whole batch behaves like one event at the barrier
					// instant: recycle the previous event's retirements once.
					dom.reap()
					batch = true
				}
				dom.applyRemote(&ss.pending[src][dst][i])
				applied++
			}
		}
	}
	ss.msgs += uint64(applied)
	return applied
}

// pendingMsgs counts messages already emitted toward the next barrier.
func (ss *Sharded) pendingMsgs() int {
	n := 0
	for _, dom := range ss.domains {
		for _, box := range dom.sc.out {
			n += len(box)
		}
	}
	return n
}

// earliestEvent returns the earliest pending event time across all domains.
func (ss *Sharded) earliestEvent() (float64, bool) {
	best, ok := 0.0, false
	for _, dom := range ss.domains {
		if at, has := dom.q.NextAt(); has && (!ok || at < best) {
			best, ok = at, true
		}
	}
	return best, ok
}

// publishDirectories refreshes every domain's exported holder directory: per
// object, the lowest-id online sharing local holder, advertised by global
// id. The multimap's key order is unspecified, but each key writes only its
// own directory entry, so the published snapshot is a pure function of
// domain state.
func (ss *Sharded) publishDirectories() {
	for d, dom := range ss.domains {
		dir := ss.dirs[d]
		dir.Clear()
		sc := dom.sc
		dom.holders.ForEachKey(func(obj catalog.ObjectID, set *index.Set[core.PeerID]) bool {
			set.ForEach(func(id core.PeerID) bool {
				// First element = lowest local id = lowest global id of this
				// domain (global = local*P + d is monotone in local).
				dir.Set(int(obj), sc.global(id))
				return false
			})
			return true
		})
	}
}

// --- requester-side cross-domain machinery ---------------------------------

// startRemoteDownload starts a download fed exclusively from across the
// partition boundary: it consults the other domains' directories (ascending
// global peer id), registers the pending download, and emits xreq to up to
// RequestFanout exporters. It reports whether any exporter was found. No RNG
// draw happens on this path: remote candidates are taken in directory order,
// so the domain's stream stays aligned with its purely-local decisions.
func (s *Sim) startRemoteDownload(p *peerState, obj catalog.ObjectID) bool {
	cands := index.MergeCandidates(s.candScratch[:0], int(obj), s.sc.peerDirs)
	s.candScratch = cands
	if len(cands) == 0 {
		return false
	}
	now := s.q.Now()
	dl := &download{
		object:      obj,
		requestedAt: now,
		providers:   make(map[core.PeerID]bool),
	}
	s.addPending(p, dl)
	if p.strat.Adaptive {
		adl := dl
		s.after(s.cfg.adaptivePatience(), func(float64) { s.adaptiveCheck(p, adl) })
	}
	n := s.cfg.RequestFanout
	if n > len(cands) {
		n = len(cands)
	}
	for _, srv := range cands[:n] {
		dl.remoteSrcs = append(dl.remoteSrcs, srv)
		s.sc.emit(domainOf(srv, s.sc.shards), xmsg{
			kind: xreq, requester: s.sc.global(p.id), server: srv, object: obj,
		})
	}
	s.col.remoteFetches++
	s.armRemoteStall(p, dl)
	return true
}

// armRemoteStall schedules the next stall check for a remotely-fed download.
func (s *Sim) armRemoteStall(p *peerState, dl *download) {
	dl.remoteProgress = dl.receivedKbits
	adl := dl
	s.after(s.sc.stall, func(float64) { s.remoteStallCheck(p, adl) })
}

// remoteStallCheck abandons a remote fetch that made no progress for a full
// stall window: cancels are emitted to every exporter, the demand is
// withdrawn, and (in the closed loop) the peer samples fresh demand. A
// download that progressed — or picked up a local feed through an exchange
// ring — keeps its watch.
func (s *Sim) remoteStallCheck(p *peerState, dl *download) {
	if p.pendingFor(dl.object) != dl {
		return // completed or abandoned in the meantime
	}
	if dl.receivedKbits > dl.remoteProgress || len(dl.sessions) > 0 {
		s.armRemoteStall(p, dl)
		return
	}
	s.cancelRemoteFeeds(p, dl)
	// Requests registered with local servers (a ring may have fed this
	// download) stay queued: from here on an IRQ entry no longer implies a
	// pending download.
	s.orphaned = true
	s.removePending(p, dl.object)
	s.col.remoteAborts++
	s.issueRequests(p)
}

// cancelRemoteFeeds emits xcancel to every exporter this download requested
// from and clears the list. No-op for purely local downloads.
func (s *Sim) cancelRemoteFeeds(p *peerState, dl *download) {
	for _, srv := range dl.remoteSrcs {
		s.sc.emit(domainOf(srv, s.sc.shards), xmsg{
			kind: xcancel, requester: s.sc.global(p.id), server: srv, object: dl.object,
		})
	}
	dl.remoteSrcs = dl.remoteSrcs[:0]
}

// --- server-side cross-domain machinery ------------------------------------

// serveRemoteQueue grants remaining free upload slots to queued cross-domain
// demand, FIFO. Entries whose object has since been evicted are dropped (the
// far-side requester recovers via its stall timeout).
func (s *Sim) serveRemoteQueue(p *peerState) {
	for p.hasFreeUploadSlot() {
		served := false
		for len(p.remoteQ) > 0 {
			d := p.remoteQ[0]
			if !p.has(d.object) {
				p.remoteQ = p.remoteQ[1:]
				continue
			}
			if !s.startRemoteSession(p, d.requester, d.object, false, d.arrival) {
				return
			}
			p.remoteQ = p.remoteQ[1:]
			served = true
			break
		}
		if !served {
			return
		}
	}
}

// startRemoteSession starts an upload whose receiver lives in another
// domain. Pair sessions carry exchange priority (ringSize 2): they may
// reclaim a non-exchange slot by preemption, exactly like ring members.
func (s *Sim) startRemoteSession(src *peerState, rdst core.PeerID, obj catalog.ObjectID, pair bool, arrival float64) bool {
	if !src.hasFreeUploadSlot() {
		if !pair || s.cfg.DisablePreemption {
			return false
		}
		victim := src.preemptibleUpload()
		if victim == nil {
			return false
		}
		s.col.preemptions++
		s.terminateSession(victim, false)
	}
	sess := s.newSession()
	sess.sim = s
	sess.src = src.id
	sess.dst = -1
	sess.remote = true
	sess.rdst = rdst
	sess.rdom = domainOf(rdst, s.sc.shards)
	sess.rArrival = arrival
	sess.object = obj
	sess.ringSize = 1
	if pair {
		sess.ringSize = 2
	}
	sess.startAt = s.q.Now()
	src.uploads = append(src.uploads, sess)
	s.scheduleBlock(sess)
	return true
}

// exportBlock emits one delivered block toward the remote requester.
func (s *Sim) exportBlock(sess *session) {
	s.col.remoteBlocks++
	s.sc.emit(sess.rdom, xmsg{
		kind:      xblock,
		requester: sess.rdst,
		server:    s.sc.global(sess.src),
		object:    sess.object,
		kbits:     s.cfg.BlockKbits,
	})
}

// --- barrier message application -------------------------------------------

// applyRemote dispatches one drained mailbox message. It runs on the
// coordinator's thread between epochs; the domain's clock sits exactly on
// the barrier instant.
func (s *Sim) applyRemote(m *xmsg) {
	switch m.kind {
	case xreq:
		s.applyRemoteRequest(m)
	case xpair:
		s.applyRemotePair(m)
	case xblock:
		s.applyRemoteBlock(m)
	case xcancel:
		s.applyRemoteCancel(m)
	}
}

// applyRemoteRequest registers cross-domain demand at the server. If the
// requester is itself advertised as an exporter of something the server
// wants, a cross-domain exchange pair forms instead: the server starts an
// exchange-priority upload at once and asks the requester's domain for the
// reciprocal. Otherwise the demand queues behind the local IRQ. A request
// the server can no longer satisfy is dropped silently — the requester's
// stall timeout recovers.
func (s *Sim) applyRemoteRequest(m *xmsg) {
	q := s.peers[localOf(m.server, s.sc.shards)]
	if !q.online || !q.sharing || !q.has(m.object) {
		return
	}
	if s.cfg.Policy.SearchesExchanges() {
		if aux, ok := s.remotePairObject(q, m.requester); ok &&
			s.startRemoteSession(q, m.requester, m.object, true, s.q.Now()) {
			s.col.remotePairs++
			s.sc.emit(domainOf(m.requester, s.sc.shards), xmsg{
				kind: xpair, requester: m.requester, server: m.server,
				object: m.object, aux: aux,
			})
			return
		}
	}
	q.remoteQ = append(q.remoteQ, xdemand{requester: m.requester, object: m.object, arrival: s.q.Now()})
	s.tryServe(q)
}

// remotePairObject returns the first pending object of q (in deterministic
// pending order) that the requester's domain advertises the requester as
// exporting — the cross-domain analogue of finding a pairwise ring, limited
// to what the directory digest proves the requester holds.
func (s *Sim) remotePairObject(q *peerState, requester core.PeerID) (catalog.ObjectID, bool) {
	rdir := s.sc.dirs[domainOf(requester, s.sc.shards)]
	for _, dl := range q.pending {
		if exp, ok := rdir.Get(int(dl.object)); ok && exp == requester {
			return dl.object, true
		}
	}
	return 0, false
}

// applyRemotePair starts the reciprocal upload of a cross-domain exchange
// pair. If the requester can no longer reciprocate — offline, stopped
// sharing, evicted the object, no reclaimable slot — the server's exchange
// upload is released with xcancel, the token-validation failure of the
// cross-domain case.
func (s *Sim) applyRemotePair(m *xmsg) {
	p := s.peers[localOf(m.requester, s.sc.shards)]
	if p.online && p.sharing && p.has(m.aux) &&
		s.startRemoteSession(p, m.server, m.aux, true, s.q.Now()) {
		return
	}
	s.sc.emit(domainOf(m.server, s.sc.shards), xmsg{
		kind: xcancel, requester: m.requester, server: m.server, object: m.object,
	})
}

// applyRemoteBlock credits one cross-partition block to the requester's
// pending download. Blocks for a download that no longer exists (completed
// via another source, abandoned, departed) bounce back as xcancel.
func (s *Sim) applyRemoteBlock(m *xmsg) {
	p := s.peers[localOf(m.requester, s.sc.shards)]
	dl := p.pendingFor(m.object)
	if dl == nil {
		s.sc.emit(domainOf(m.server, s.sc.shards), xmsg{
			kind: xcancel, requester: m.requester, server: m.server, object: m.object,
		})
		return
	}
	now := s.q.Now()
	dl.receivedKbits += m.kbits
	s.col.blockReceived(now, p.class, m.kbits)
	if dl.receivedKbits >= s.cfg.ObjectKbits {
		s.completeDownload(p, dl)
	}
}

// applyRemoteCancel withdraws a requester's demand at the server: queued
// demand is dropped and the matching remote upload, if running, terminates
// (freeing its slot for local service).
func (s *Sim) applyRemoteCancel(m *xmsg) {
	q := s.peers[localOf(m.server, s.sc.shards)]
	for i, d := range q.remoteQ {
		if d.requester == m.requester && d.object == m.object {
			q.remoteQ = append(q.remoteQ[:i], q.remoteQ[i+1:]...)
			break
		}
	}
	for _, up := range q.uploads {
		if up.remote && up.rdst == m.requester && up.object == m.object {
			s.terminateSession(up, true)
			break
		}
	}
}
