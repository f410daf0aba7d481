// Package swarm is the live-network counterpart of the simulator's
// experiment harness: it launches hundreds of real peers (internal/node)
// plus a sharded trusted mediator tier over the in-memory transport — or
// TCP loopback — drives a scenario against them, and aggregates every
// node's Stats into the same figure-shaped TSV the simulator emits, so live
// results are directly comparable with exchsim output.
//
// A run is a table, a world and a fault schedule. The scenario table
// (scenario.go) holds one row per scenario, next to its one description:
// its world's layout, its defaults and the harness switches it turns. One
// build lays every world out — exchange pairs, or seeds holding a catalog
// the rest download — assigning strategy classes (the definitions
// internal/sim consumes, so both stacks report identical class labels),
// placing content and deriving wants from the run's seeded RNG. The fault
// schedule (schedule.go) compiles every timed action into events on one
// eventq.Queue that one driver goroutine plays against the wall clock.
package swarm

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/medclient"
	"barter/internal/mediator"
	"barter/internal/node"
	"barter/internal/protocol"
	"barter/internal/rng"
	"barter/internal/strategy"
	"barter/internal/transport"
	"barter/internal/workload"
)

// Scenario names a declarative swarm workload.
type Scenario string

// The built-in scenarios, each described at its row of the scenario table.
const (
	FlashCrowd Scenario = "flashcrowd"
	Mixed      Scenario = "mixed"
	Freerider  Scenario = "freerider"
	Cheater    Scenario = "cheater"
	Churn      Scenario = "churn"
	Adversary  Scenario = "adversary"
	Medfail    Scenario = "medfail"
	Wave       Scenario = "wave"
)

// Scenarios lists every built-in scenario in presentation order.
func Scenarios() []Scenario {
	out := make([]Scenario, len(scenarios))
	for i := range scenarios {
		out[i] = scenarios[i].name
	}
	return out
}

// Every scenario shares these: a downloader's want count (where wants are
// not structural), the provider fan-out handed to each Download, and the
// spacing of churn's node restarts.
const (
	wantsPerNode     = 2
	providersPerWant = 6
	churnInterval    = 5 * time.Millisecond
)

// Config parameterizes one swarm run. The zero value is not runnable; at
// minimum set Scenario and Nodes, then fillDefaults sizes the rest from the
// scenario's table row (Quick shrinks objects so a run takes seconds).
type Config struct {
	// Scenario selects the workload; Nodes is the population size.
	Scenario Scenario
	Nodes    int
	// Quick shrinks object sizes and pacing for second-scale runs.
	Quick bool
	// Seed drives every structural random choice (placement, wants, churn
	// victims). Wall-clock timing still varies run to run.
	Seed uint64
	// TCP selects loopback TCP (with read/write deadlines) instead of a
	// fresh in-memory network.
	TCP bool

	// ObjectSize and BlockSize shape each transfer.
	ObjectSize int
	BlockSize  int
	// UploadSlots bounds each sharer's concurrent uploads; scarcity is what
	// makes exchange priority visible.
	UploadSlots int
	// FreeriderFrac is the fraction of peers that share nothing, on every
	// scenario; CorruptFrac is the fraction of seeds that serve junk on the
	// scenarios with a corrupt class (cheater, medfail).
	FreeriderFrac float64
	CorruptFrac   float64
	// AdaptiveFrac, WhitewashFrac, and PartialFrac size the adversary
	// scenario's strategic classes (see internal/strategy): adaptive
	// free-riders, identity-churning whitewashers, and throttled partial
	// sharers. Zero on the adversary scenario means 0.15 each; every other
	// scenario ignores them.
	AdaptiveFrac  float64
	WhitewashFrac float64
	PartialFrac   float64
	// AdaptivePatience is how long an adaptive free-rider tolerates stalled
	// downloads before it starts contributing; WhitewashInterval is the
	// wall-clock period between a whitewasher's identity churns.
	AdaptivePatience  time.Duration
	WhitewashInterval time.Duration
	// Restarts is how many node close/restart cycles the churn scenario
	// performs, 5 ms apart.
	Restarts int
	// Mediators sizes the mediator tier: N shards partitioned by
	// consistent hashing over object id, each owning its slice of escrow
	// and flagged-peer state. 0 means a single shard — the historical
	// one-process mediator.
	Mediators int
	// MedKills is how many shard kill/restart cycles the medfail scenario
	// performs (round-robin over the tier); MedKillInterval is the pause
	// between them.
	MedKills        int
	MedKillInterval time.Duration
	// MedDataDir roots the mediator shards' write-ahead logs; empty means
	// in-memory shards, which a restart wipes. On medfail it also arms the
	// zero-flags-lost checks.
	MedDataDir string
	// Stripe caps how many origins each download stripes across
	// (node.Config.Stripe); <= 1 keeps single-origin transfers. A node
	// stripes on whichever block path its scenario runs: plain lanes, each
	// block digest-checked on arrival, or on medfail the mediated path,
	// with per-origin escrow and audits.
	Stripe int
	// Workload is the wave scenario's demand spec; nil means the "flash"
	// builtin anchored at two requests per downloader. Rejected on other
	// scenarios (their wants are structural, not temporal).
	Workload *workload.Spec
	// WaveWindow is the wall-clock horizon the wave scenario compiles its
	// spec over: all of the spec's normalized times map onto this window.
	// Zero means 2s under Quick, 6s otherwise.
	WaveWindow time.Duration
	// Record, when set, receives the run as a replayable JSON-lines trace
	// (workload.Trace): initial holds, every demand arrival, and wave
	// session edges, written after the run settles. Any scenario records.
	Record io.Writer
	// Timeout bounds the whole run; wants still pending when it expires
	// are recorded as failed.
	Timeout time.Duration
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// pick returns quick under Quick, full otherwise.
func pick[T any](quick bool, full, q T) T {
	if quick {
		return q
	}
	return full
}

func (c *Config) fillDefaults() error {
	if c.Scenario == "" {
		return errors.New("swarm: Scenario is required")
	}
	d := lookup(c.Scenario)
	if d == nil {
		return fmt.Errorf("swarm: unknown scenario %q", c.Scenario)
	}
	if c.Workload != nil {
		if d.window == 0 {
			return fmt.Errorf("swarm: a Workload spec only drives the wave scenario, not %q", c.Scenario)
		}
		if err := c.Workload.Validate(); err != nil {
			return fmt.Errorf("swarm: %w", err)
		}
	}
	if c.WaveWindow <= 0 {
		c.WaveWindow = pick(c.Quick, d.window, d.window/3)
	}
	if c.Nodes < 4 {
		return fmt.Errorf("swarm: need at least 4 nodes, got %d", c.Nodes)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Mediators <= 0 {
		c.Mediators = max(1, d.mediators)
	}
	if c.Mediators > 64 {
		return fmt.Errorf("swarm: %d mediator shards is beyond any sane tier", c.Mediators)
	}
	if c.Stripe < 0 || c.Stripe > 16 {
		return fmt.Errorf("swarm: Stripe %d out of range [0, 16]", c.Stripe)
	}
	// A scenario whose row plays no shard kills or node restarts, or has no
	// corrupt or strategic classes (below), ignores those knobs.
	if d.kills == 0 {
		c.MedKills = 0
	} else if c.MedKills <= 0 {
		c.MedKills = d.kills
	}
	if c.MedKillInterval <= 0 {
		c.MedKillInterval = 150 * time.Millisecond
	}
	if d.restarts == 0 {
		c.Restarts = 0
	} else if c.Restarts <= 0 {
		c.Restarts = pick(c.Quick, d.restarts, d.quickRestarts)
	}
	if c.ObjectSize <= 0 {
		c.ObjectSize = pick(c.Quick, 256<<10, 32<<10)
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 4 << 10
	}
	if c.UploadSlots <= 0 {
		c.UploadSlots = d.slots
	}
	if c.FreeriderFrac == 0 {
		c.FreeriderFrac = d.freeriderFrac
	}
	if c.CorruptFrac == 0 {
		c.CorruptFrac = d.corruptFrac
	}
	if c.AdaptiveFrac == 0 && c.WhitewashFrac == 0 && c.PartialFrac == 0 {
		// Default adversary classes, shrunk to whatever room an already-set
		// FreeriderFrac leaves under the 0.9 cap: a command naming only
		// -frac must not be rejected over fractions it never specified.
		f := min(d.adversaryFrac, max(0, (0.9-c.FreeriderFrac)/3))
		c.AdaptiveFrac, c.WhitewashFrac, c.PartialFrac = f, f, f
	}
	for _, f := range []float64{c.FreeriderFrac, c.CorruptFrac, c.AdaptiveFrac, c.WhitewashFrac, c.PartialFrac} {
		if f < 0 || f > 0.9 {
			return fmt.Errorf("swarm: class fraction %g out of range [0, 0.9]", f)
		}
	}
	if sum := c.AdaptiveFrac + c.WhitewashFrac + c.PartialFrac + c.FreeriderFrac; sum > 0.9 {
		return fmt.Errorf("swarm: adversary fractions sum to %g, want <= 0.9 (sharers must remain)", sum)
	}
	if d.corruptFrac == 0 {
		c.CorruptFrac = 0
	}
	if d.adversaryFrac == 0 {
		c.AdaptiveFrac, c.WhitewashFrac, c.PartialFrac = 0, 0, 0
	}
	if c.AdaptivePatience <= 0 {
		c.AdaptivePatience = pick(c.Quick, 500*time.Millisecond, 200*time.Millisecond)
	}
	if c.WhitewashInterval <= 0 {
		c.WhitewashInterval = pick(c.Quick, 200*time.Millisecond, 80*time.Millisecond)
	}
	if c.Timeout <= 0 {
		c.Timeout = pick(c.Quick, 5*time.Minute, 60*time.Second)
	}
	return nil
}

// wantState tracks one (node, object) download across retries and restarts.
type wantState struct {
	obj       catalog.ObjectID
	providers []core.PeerID
	// startAt delays the want's first issue past run start — the wave
	// scenario's scheduled demand arrival. Zero means issue immediately.
	startAt time.Duration

	mu       sync.Mutex
	done     bool
	failed   bool
	attempts int
	elapsed  time.Duration
}

// peerState wraps one live node with everything needed to restart it. Its
// behavior class is a strategy.Strategy — the same declarative definitions
// the simulator consumes.
type peerState struct {
	strat strategy.Strategy
	// medc is the peer's shard-aware mediator client (mediated scenarios
	// only); it survives node restarts and is closed at teardown.
	medc *medclient.Client

	mu       sync.Mutex
	id       core.PeerID // changes when a whitewasher sheds its identity
	node     *node.Node
	restarts int
	// forcedShare marks an adaptive free-rider that was starved into
	// contributing; flips counts those transitions, whitewashes the identity
	// churns executed.
	forcedShare bool
	flips       int
	whitewashes int

	holds []catalog.ObjectID // objects held from the start
	wants []*wantState
	// departAt schedules the wave scenario's session end, after which the
	// fault schedule closes the node for good; zero means it stays.
	departAt time.Duration
}

// current returns the peer's live node (it changes across churn restarts).
func (p *peerState) current() *node.Node {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.node
}

// currentID returns the peer's current identity.
func (p *peerState) currentID() core.PeerID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.id
}

// swarmRun is the orchestrator state for one Run.
type swarmRun struct {
	cfg Config
	def *scenarioDef // the scenario's table row
	tr  transport.Transport
	// dir is the shared peer-id -> address lookup service (the one the
	// paper treats as external); restarts re-register under fresh addresses.
	dir sync.Map
	// objects is the world's catalog size, fixed by build; oracle holds
	// every object's block digests.
	objects int
	oracle  map[catalog.ObjectID][][32]byte
	peers   []*peerState
	cluster *mediator.Cluster
	// kills counts medfail's shard kill/restart cycles; flagsLost counts
	// flagged cheaters a restart of the durable tier forgot, which must stay
	// zero. Both are written by the fault driver (joined before collect) and
	// the post-run durability check, so collect reads them race-free.
	kills     int
	flagsLost int
	rng       *rng.RNG
	// rec accumulates the run's replayable trace when cfg.Record is set; nil
	// otherwise. Safe for the waiter goroutines' concurrent use.
	rec     *workload.Recorder
	start   time.Time
	giveUp  chan struct{} // closed when the run deadline expires
	settled chan struct{} // closed once every waiter has returned
	waiters sync.WaitGroup
	// idMu guards idSeq, the allocator for fresh whitewash identities.
	idMu  sync.Mutex
	idSeq int
}

// freshID allocates an identity no initial peer ever held, for a
// whitewasher rejoining under a new name. idSeq starts past the highest id
// the world builder assigned, so fresh identities can never collide with a
// live peer.
func (s *swarmRun) freshID() core.PeerID {
	s.idMu.Lock()
	defer s.idMu.Unlock()
	s.idSeq++
	return core.PeerID(s.idSeq)
}

func (s *swarmRun) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// objData derives an object's bytes deterministically from its id, so a
// restarted holder can re-materialize content without snapshotting nodes.
func objData(obj catalog.ObjectID, size int) []byte {
	out := make([]byte, size)
	seed := sha256.Sum256(fmt.Appendf(nil, "swarm-object-%d", obj))
	for i := range out {
		out[i] = seed[i%32] ^ byte(i) ^ byte(i>>8)
	}
	return out
}

// newRun validates cfg and builds the run's world — classes, content, wants
// and digests, every random draw but churn's — without starting anything.
func newRun(cfg Config) (*swarmRun, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	s := &swarmRun{
		cfg:     cfg,
		def:     lookup(cfg.Scenario),
		oracle:  make(map[catalog.ObjectID][][32]byte),
		rng:     rng.New(cfg.Seed),
		giveUp:  make(chan struct{}),
		settled: make(chan struct{}),
	}
	if cfg.Record != nil {
		s.rec = workload.NewRecorder()
	}
	if err := s.build(); err != nil {
		return nil, err
	}
	for obj := 1; obj <= s.objects; obj++ {
		id := catalog.ObjectID(obj)
		s.oracle[id] = blockDigests(objData(id, cfg.ObjectSize), cfg.BlockSize)
	}
	s.idSeq = cfg.Nodes
	for _, p := range s.peers {
		s.idSeq = max(s.idSeq, int(p.id))
	}
	return s, nil
}

// Run executes one swarm scenario and aggregates the outcome.
func Run(cfg Config) (*Result, error) {
	s, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	cfg = s.cfg
	faults := s.schedule()
	if cfg.TCP {
		s.tr = transport.TCP{ReadTimeout: 30 * time.Second, WriteTimeout: 30 * time.Second}
	} else {
		s.tr = transport.NewMem()
	}

	// The mediator tier comes up before the nodes: mediated nodes need its
	// addresses at spawn time.
	cluster, err := mediator.NewClusterOpts(s.tr, s.mediatorAddrs(), s.digests, mediator.ClusterOpts{DataDir: cfg.MedDataDir})
	if err != nil {
		return nil, fmt.Errorf("swarm: mediator tier: %w", err)
	}
	s.cluster = cluster
	defer cluster.Close()

	for _, p := range s.peers {
		if err := s.spawn(p); err != nil {
			s.teardown()
			return nil, err
		}
	}
	s.logf("world: %s", s.describe())
	if s.rec != nil {
		// Initial holdings are t=0 facts; demand and session edges are
		// recorded as they happen by the waiters and departure events.
		for _, p := range s.peers {
			for _, o := range p.holds {
				s.rec.Hold(int(p.currentID()), int(o))
			}
		}
	}

	s.start = time.Now()
	deadline := time.AfterFunc(cfg.Timeout, func() { close(s.giveUp) })
	defer deadline.Stop()

	s.launchWants()
	played := make(chan struct{})
	go func() {
		defer close(played)
		s.play(faults)
	}()
	s.waiters.Wait()
	// Join the fault driver before auditing and before touching nodes: a
	// shard kill must not race convergence, nor a respawn teardown.
	close(s.settled)
	<-played

	organic := len(s.flaggedCheaters())
	flagged := s.convergeCheaterFlags()
	if s.def.kills > 0 && cfg.MedDataDir != "" {
		// The final durability check: restart every shard and demand each
		// flag come back from the logs alone (flags replicate only when a
		// verdict is reached, so a lost one is lost history).
		for i := 0; i < s.cluster.Shards(); i++ {
			s.restartShard(i)
		}
	}
	elapsed := time.Since(s.start)

	res := s.collect(elapsed, flagged)
	res.FlaggedOrganic = organic
	if s.rec != nil {
		res.TraceEvents = s.rec.Len()
		trace := s.rec.Trace(workload.Header{
			Scenario:    string(s.cfg.Scenario),
			Nodes:       s.cfg.Nodes,
			Objects:     s.objects,
			ObjectKbits: float64(s.cfg.ObjectSize) * 8 / 1000,
			BlockKbits:  float64(s.cfg.BlockSize) * 8 / 1000,
			Horizon:     elapsed.Seconds(),
			Seed:        s.cfg.Seed,
		})
		if _, err := trace.WriteTo(cfg.Record); err != nil {
			s.teardown()
			return nil, fmt.Errorf("swarm: write trace: %w", err)
		}
	}
	s.teardown()
	return res, nil
}

// mediatorAddrs names the tier's listen addresses.
func (s *swarmRun) mediatorAddrs() []string {
	addrs := make([]string, s.cfg.Mediators)
	for i := range addrs {
		if s.cfg.TCP {
			addrs[i] = "127.0.0.1:0"
		} else {
			addrs[i] = fmt.Sprintf("mem://swarm-mediator-%d", i)
		}
	}
	return addrs
}

// restartShard kills and restarts one mediator shard. Over a durable tier
// every cheater flagged before must still be flagged after, and each one the
// tier forgot is counted in flagsLost; in-memory shards are allowed to
// forget.
func (s *swarmRun) restartShard(shard int) {
	var before []core.PeerID // the detection history a durable tier must keep
	if s.cfg.MedDataDir != "" {
		before = s.flaggedCheaters()
	}
	if err := s.cluster.RestartShard(shard); err != nil {
		s.logf("restart of mediator shard %d failed: %v", shard, err)
		return
	}
	s.kills++
	for _, id := range before {
		if s.cluster.Flagged(id) == 0 {
			s.flagsLost++
			s.logf("restart of mediator shard %d lost the flag for peer %d", shard, id)
		}
	}
}

// flaggedCheaters lists the corrupt peers the tier holds a flag against.
func (s *swarmRun) flaggedCheaters() []core.PeerID {
	var out []core.PeerID
	for _, p := range s.peers {
		if id := p.currentID(); p.strat.Corrupt && s.cluster.Flagged(id) > 0 {
			out = append(out, id)
		}
	}
	return out
}

// addrOf looks a peer's current address up in the directory.
func (s *swarmRun) addrOf(id core.PeerID) (string, bool) {
	a, _ := s.dir.Load(id)
	addr, ok := a.(string)
	return addr, ok
}

// digests is the run's digest oracle: every object's trusted block digests.
func (s *swarmRun) digests(o catalog.ObjectID) ([][32]byte, bool) {
	d, ok := s.oracle[o]
	return d, ok
}

func (s *swarmRun) nodeAddr() string {
	if s.cfg.TCP {
		return "127.0.0.1:0"
	}
	return "" // in-memory auto-assign
}

func blockDigests(data []byte, blockSize int) [][32]byte {
	n := (len(data) + blockSize - 1) / blockSize
	out := make([][32]byte, 0, n)
	for off := 0; off < len(data); off += blockSize {
		end := min(off+blockSize, len(data))
		out = append(out, sha256.Sum256(data[off:end]))
	}
	return out
}

// spawn starts (or restarts) the live node for p and registers its address.
// The node's behavior — whether it serves, how many upload slots it grants,
// whether it corrupts payloads — derives from the peer's strategy.
func (s *swarmRun) spawn(p *peerState) error {
	p.mu.Lock()
	id, share := p.id, p.strat.Share || p.forcedShare // an adaptive flip shares too
	p.mu.Unlock()
	cfg := node.Config{
		ID:           id,
		Addr:         s.nodeAddr(),
		Transport:    s.tr,
		Lookup:       s.addrOf,
		Share:        share,
		Corrupt:      p.strat.Corrupt,
		UploadSlots:  p.strat.SlotCap(s.cfg.UploadSlots),
		BlockSize:    s.cfg.BlockSize,
		TickInterval: 5 * time.Millisecond,
		StallTicks:   10,
		MaxRetries:   1 << 20, // the harness owns giving up, via Timeout
		Stripe:       s.cfg.Stripe,
	}
	if s.def.paced {
		cfg.BlockDelay = time.Millisecond
	}
	if s.def.trusted {
		cfg.TrustedDigests = s.digests
	}
	if s.def.mediated {
		if p.medc == nil {
			mc, err := s.medClient(nil)
			if err != nil {
				return fmt.Errorf("swarm: medclient for %d: %w", id, err)
			}
			p.medc = mc
		}
		cfg.Mediator = p.medc
	}
	n, err := node.New(cfg)
	if err != nil {
		return fmt.Errorf("swarm: spawn %d: %w", id, err)
	}
	for _, obj := range p.holds {
		n.AddObject(obj, objData(obj, s.cfg.ObjectSize))
	}
	// Wants completed before a restart stay available to the network.
	for _, w := range p.wants {
		w.mu.Lock()
		completed := w.done
		w.mu.Unlock()
		if completed {
			n.AddObject(w.obj, objData(w.obj, s.cfg.ObjectSize))
		}
	}
	p.mu.Lock()
	p.node = n
	p.mu.Unlock()
	s.dir.Store(id, n.Addr())
	return nil
}

// launchWants starts one waiter goroutine per (peer, want): it issues the
// download, retries on failure (a churned provider, a restarted self), and
// records completion or gives up at the run deadline. Non-contributing
// classes launch first so their requests occupy upload slots before sharers
// ask — the strongest-case ordering for observing exchange priority,
// mirroring how free-riders race ahead in the paper's scenarios.
func (s *swarmRun) launchWants() {
	phase := func(p *peerState) int {
		switch {
		case !p.strat.Share: // static, adaptive, and whitewashing free-riders
			return 0
		case p.strat.Corrupt:
			return 1
		default: // sharing and partial
			return 2
		}
	}
	for ph := 0; ph <= 2; ph++ {
		for _, p := range s.peers {
			if phase(p) != ph {
				continue
			}
			for _, w := range p.wants {
				s.waiters.Add(1)
				go s.await(p, w)
			}
		}
	}
}

// await drives one want to completion or the run deadline and records the
// outcome.
func (s *swarmRun) await(p *peerState, w *wantState) {
	defer s.waiters.Done()
	done := s.fetch(p, w)
	w.mu.Lock()
	w.done, w.failed, w.elapsed = done, !done, time.Since(s.start)
	w.mu.Unlock()
}

// fetch reports whether w completed before the run deadline. A wave want
// waits out its scheduled arrival first; a failed download (closed
// mid-churn, or sources exhausted) is retried with backoff against the
// peer's current node.
func (s *swarmRun) fetch(p *peerState, w *wantState) bool {
	if w.startAt > 0 && !s.sleep(w.startAt, nil) {
		return false
	}
	if s.rec != nil {
		s.rec.Request(time.Since(s.start).Seconds(), int(p.currentID()), int(w.obj))
	}
	for backoff := 2 * time.Millisecond; ; backoff = min(2*backoff, 64*time.Millisecond) {
		providers := make(map[core.PeerID]string, len(w.providers))
		for _, pid := range w.providers {
			if addr, ok := s.addrOf(pid); ok {
				providers[pid] = addr
			}
		}
		w.mu.Lock()
		w.attempts++
		w.mu.Unlock()
		select {
		case err := <-p.current().Download(w.obj, providers):
			if err == nil {
				return true
			}
		case <-s.giveUp:
			return false
		}
		if !s.sleep(backoff, nil) {
			return false
		}
	}
}

// sleep waits d; it reports false when the run deadline, or stop (nil:
// never), comes first.
func (s *swarmRun) sleep(d time.Duration, stop <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
	case <-s.giveUp:
	}
	return false
}

// allDone reports whether every want in ws has completed or, with
// orFailed, finished either way.
func allDone(ws []*wantState, orFailed bool) bool {
	for _, w := range ws {
		w.mu.Lock()
		over := w.done || (orFailed && w.failed)
		w.mu.Unlock()
		if !over {
			return false
		}
	}
	return true
}

// medClient builds a shard-aware mediator client over the tier's addresses,
// which a shard restart keeps.
func (s *swarmRun) medClient(logf func(string, ...any)) (*medclient.Client, error) {
	return medclient.New(medclient.Config{Transport: s.tr, Seeds: s.cluster.Addrs(), Backoff: 10 * time.Millisecond, Logf: logf})
}

// auditOne plays the receiving peer's role of the Section III-B protocol
// against one corrupt node: seal the junk it serves under its escrowed
// key, deposit, and submit a sample for audit. It reports whether the
// tier rejected the exchange (and so flagged the cheater).
func (s *swarmRun) auditOne(cl *medclient.Client, id core.PeerID) bool {
	obj := catalog.ObjectID(1)
	// Distinct from the organic exchange ids the mediated block path
	// derives, so orchestrator audits never collide with node escrow.
	exchange := uint64(id) | 1<<63
	var key [16]byte
	copy(key[:], fmt.Sprintf("cheater-%08d-key", id))
	if err := cl.Deposit(exchange, id, obj, key); err != nil {
		s.logf("audit %d: deposit: %v", id, err)
		return false
	}
	// What a corrupt node actually serves: junk bytes in place of the real
	// block (the same pattern node.Config.Corrupt emits).
	junk := make([]byte, min(s.cfg.BlockSize, s.cfg.ObjectSize))
	for j := range junk {
		junk[j] = byte(j) ^ 0xAA
	}
	victim := id + 1
	sealed, err := mediator.Seal(key, id, victim, obj, 0, junk)
	if err != nil {
		s.logf("audit %d: seal: %v", id, err)
		return false
	}
	samples := []protocol.Block{{Object: obj, Index: 0, Origin: id, Recipient: victim, Encrypted: true, Payload: sealed}}
	_, err = cl.Verify(exchange, victim, id, obj, samples)
	if errors.Is(err, medclient.ErrRejected) {
		return true
	}
	s.logf("audit %d: junk passed the audit: %v", id, err)
	return false
}

// convergeCheaterFlags is the one cheater-flagging path: once the workload
// has settled (and the shard kills with it), every corrupt peer must end up
// flagged on the tier. Organic flags from the mediated block path count; any
// cheater still unflagged — the run never audited it, it never won a
// manifest race, or its flag died with a killed shard — is re-audited until
// the tier-wide count converges or the run deadline hits. Without kills the
// first pass flags every cheater.
func (s *swarmRun) convergeCheaterFlags() int {
	var corrupt []core.PeerID
	for _, p := range s.peers {
		if p.strat.Corrupt {
			corrupt = append(corrupt, p.currentID())
		}
	}
	if len(corrupt) == 0 {
		return 0
	}
	cl, err := s.medClient(s.cfg.Logf)
	if err != nil {
		s.logf("audit client: %v", err)
		return 0
	}
	defer cl.Close()
	for {
		flagged := 0
		for _, id := range corrupt {
			if s.cluster.Flagged(id) > 0 || s.auditOne(cl, id) {
				flagged++
			}
		}
		if flagged == len(corrupt) {
			return flagged
		}
		s.logf("cheater flags not yet converged: %d missing", len(corrupt)-flagged)
		if !s.sleep(20*time.Millisecond, nil) {
			return flagged
		}
	}
}

// teardown closes every live node, then the mediator clients they used
// (nodes first: their in-flight audit goroutines hold the clients).
func (s *swarmRun) teardown() {
	var wg sync.WaitGroup
	for _, p := range s.peers {
		if nd := p.current(); nd != nil {
			wg.Add(1)
			go func(nd *node.Node) {
				defer wg.Done()
				nd.Close()
			}(nd)
		}
	}
	wg.Wait()
	for _, p := range s.peers {
		if p.medc != nil {
			p.medc.Close()
		}
	}
}
