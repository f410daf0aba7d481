// Package swarm is the live-network counterpart of the simulator's
// experiment harness: it launches hundreds of real peers (internal/node)
// plus a trusted mediator over the in-memory transport — or TCP loopback —
// drives a declarative scenario against them, and aggregates every node's
// Stats into the same figure-shaped TSV the simulator emits, so live results
// are directly comparable with exchsim output.
//
// Scenarios:
//
//   - flashcrowd: one object, a few seed holders, everyone else downloads it
//     at once; completed sharers join the provider set (epidemic spread).
//   - mixed: a steady workload — many objects spread across the population,
//     every node wants a few it lacks.
//   - freerider: sharers hold content and form mutual-want pairs (live
//     exchange rings); a configurable fraction of peers contributes nothing.
//     The output mirrors Figure 12: mean completion time for the "sharing"
//     vs "non-sharing" class.
//   - cheater: a fraction of the seeds serve junk; receivers validate every
//     block and complete from honest holders, and the mediator audits each
//     cheater's output, flagging them all.
//   - churn: the mixed workload while nodes are closed and restarted
//     mid-run, hundreds of times; every shutdown path in node, transport,
//     and mediator is exercised under load.
//   - adversary: the freerider pairing substrate plus the richer strategic
//     classes of internal/strategy — adaptive free-riders that start
//     contributing once starved, whitewashers that periodically rejoin
//     under fresh identities, and partial sharers with throttled upload
//     slots — each reported as its own live/<class> series.
//   - medfail: the cheater world with every node speaking the mediated
//     block path natively (sealed blocks, escrowed keys, end-of-transfer
//     audits via internal/medclient) while mediator shards are killed and
//     restarted mid-run; cheater detection must still converge. With
//     Config.MedDataDir every shard keeps a write-ahead log and the run also
//     demands that no restart — nor a final restart of the whole tier —
//     forgets a flagged cheater.
//   - wave: the temporal workload scenario — a few seeds hold the catalog
//     while everyone else's demand is scheduled by a workload.Spec (see
//     internal/workload) compiled over Config.WaveWindow: request times
//     follow the spec's demand curve, objects its popularity model, and
//     cohort peers arrive late or depart early as live session churn. With
//     Config.Record set, any scenario emits a replayable JSON-lines trace
//     (docs/WORKLOADS.md) the simulator re-runs via sim.Config.Trace.
//
// Peer behavior classes come from internal/strategy — the same declarative
// definitions the simulator consumes — so exchswarm TSV and exchsim figures
// report identical class labels from one source of truth.
//
// The orchestrator owns a shared address directory (the lookup service the
// paper treats as external), a digest oracle covering the whole catalog,
// and the mediator tier: Config.Mediators shards partitioned by consistent
// hashing over object id (every scenario runs against it; 1 shard
// reproduces the historical single mediator).
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
	"barter/internal/perfstats"
	"barter/internal/protocol"
	"barter/internal/rng"
	"barter/internal/strategy"
	"barter/internal/transport"
	"barter/internal/workload"
)

// Scenario names a declarative swarm workload.
type Scenario string

// The built-in scenarios.
const (
	FlashCrowd Scenario = "flashcrowd"
	Mixed      Scenario = "mixed"
	Freerider  Scenario = "freerider"
	Cheater    Scenario = "cheater"
	Churn      Scenario = "churn"
	Adversary  Scenario = "adversary"
	// Medfail is the mediator-tier torture test: the cheater world with
	// nodes speaking the mediated block path natively (sealed blocks,
	// escrowed keys, end-of-transfer audits through the shard-aware
	// client), while mediator shards are killed and restarted mid-run.
	// Cheater detection must still converge. Over a durable tier
	// (Config.MedDataDir) the flagged-cheater set must also survive every
	// restart, and a final restart of the whole tier from its logs alone.
	Medfail Scenario = "medfail"
	// Wave is the temporal workload scenario: downloader demand is scheduled
	// by a workload.Spec compiled over Config.WaveWindow — flash-crowd and
	// diurnal curves, Zipf popularity, cohort session churn — instead of the
	// other scenarios' static want lists. The same spec drives
	// sim.Config.Workload, so live and simulated runs share one demand
	// definition.
	Wave Scenario = "wave"
)

// Scenarios lists every built-in scenario in presentation order.
func Scenarios() []Scenario {
	return []Scenario{FlashCrowd, Mixed, Freerider, Cheater, Churn, Adversary, Medfail, Wave}
}

// Peer class labels, shared with the simulator through internal/strategy so
// live series and figure series carry identical names.
const (
	ClassSharing     = strategy.LabelSharing
	ClassNonSharing  = strategy.LabelNonSharing
	ClassCorrupt     = strategy.LabelCorrupt
	ClassAdaptive    = strategy.LabelAdaptive
	ClassWhitewasher = strategy.LabelWhitewasher
	ClassPartial     = strategy.LabelPartial
)

// Config parameterizes one swarm run. The zero value is not runnable; at
// minimum set Scenario and Nodes, then fillDefaults sizes the rest per
// scenario (Quick shrinks objects so a run takes seconds).
type Config struct {
	// Scenario selects the workload; Nodes is the population size.
	Scenario Scenario
	Nodes    int
	// Quick shrinks object sizes and pacing for second-scale runs.
	Quick bool
	// Seed drives every structural random choice (placement, wants, churn
	// victims). Wall-clock timing still varies run to run.
	Seed uint64
	// Transport overrides the wire; nil uses a fresh in-memory network.
	// TCP selects loopback TCP (with read/write deadlines) instead.
	Transport transport.Transport
	TCP       bool

	// Objects is the catalog size; ObjectSize and BlockSize shape each
	// transfer; BlockDelay paces upload slots in wall-clock time.
	Objects    int
	ObjectSize int
	BlockSize  int
	BlockDelay time.Duration
	// UploadSlots bounds each sharer's concurrent uploads; scarcity is what
	// makes exchange priority visible.
	UploadSlots int
	// WantsPerNode is how many objects each downloader requests (scenarios
	// with structured wants ignore it). ProvidersPerWant caps the provider
	// fan-out handed to each Download.
	WantsPerNode     int
	ProvidersPerWant int
	// FreeriderFrac is the fraction of peers that share nothing;
	// CorruptFrac is the fraction of flashcrowd seeds that serve junk.
	FreeriderFrac float64
	CorruptFrac   float64
	// AdaptiveFrac, WhitewashFrac, and PartialFrac size the adversary
	// scenario's strategic classes (see internal/strategy): adaptive
	// free-riders, identity-churning whitewashers, and throttled partial
	// sharers. Zero on the adversary scenario means 0.15 each.
	AdaptiveFrac  float64
	WhitewashFrac float64
	PartialFrac   float64
	// AdaptivePatience is how long an adaptive free-rider tolerates stalled
	// downloads before it starts contributing; WhitewashInterval is the
	// wall-clock period between a whitewasher's identity churns.
	AdaptivePatience  time.Duration
	WhitewashInterval time.Duration
	// Restarts is how many node close/restart cycles the churn scenario
	// performs; ChurnInterval is the pause between them.
	Restarts      int
	ChurnInterval time.Duration
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
	// (node.Config.Stripe). A node stripes with or without a mediator; the
	// harness additionally switches the whole scenario onto the mediated
	// block path — sealed blocks, per-origin escrow and audits — for values
	// above 1, because that is the combination its scenarios exist to
	// exercise: on the cheater scenario every corrupt origin is then
	// flagged organically by the lane audits of its own victims. <= 1
	// keeps single-origin transfers on the scenario's own path.
	Stripe int
	// Workload is the wave scenario's demand spec; nil means the "flash"
	// builtin anchored at WantsPerNode requests per downloader. Rejected on
	// other scenarios (their wants are structural, not temporal).
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

func (c *Config) fillDefaults() error {
	switch c.Scenario {
	case FlashCrowd, Mixed, Freerider, Cheater, Churn, Adversary, Medfail, Wave:
	case "":
		return errors.New("swarm: Scenario is required")
	default:
		return fmt.Errorf("swarm: unknown scenario %q", c.Scenario)
	}
	if c.Workload != nil {
		if c.Scenario != Wave {
			return fmt.Errorf("swarm: a Workload spec only drives the wave scenario, not %q", c.Scenario)
		}
		if err := c.Workload.Validate(); err != nil {
			return fmt.Errorf("swarm: %w", err)
		}
	}
	if c.Scenario == Wave && c.WaveWindow <= 0 {
		if c.Quick {
			c.WaveWindow = 2 * time.Second
		} else {
			c.WaveWindow = 6 * time.Second
		}
	}
	if c.Nodes < 4 {
		return fmt.Errorf("swarm: need at least 4 nodes, got %d", c.Nodes)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Mediators <= 0 {
		c.Mediators = 1
		if c.Scenario == Medfail {
			c.Mediators = 4 // killing shards needs a tier to fail over within
		}
	}
	if c.Mediators > 64 {
		return fmt.Errorf("swarm: %d mediator shards is beyond any sane tier", c.Mediators)
	}
	if c.Stripe < 0 || c.Stripe > 16 {
		return fmt.Errorf("swarm: Stripe %d out of range [0, 16]", c.Stripe)
	}
	if c.Scenario == Medfail {
		if c.MedKills <= 0 {
			c.MedKills = 6
		}
		if c.MedKillInterval <= 0 {
			c.MedKillInterval = 150 * time.Millisecond
		}
	}
	if c.Objects <= 0 {
		switch c.Scenario {
		case FlashCrowd, Cheater, Medfail:
			c.Objects = 1
		default:
			c.Objects = max(4, c.Nodes/8)
		}
	}
	if c.ObjectSize <= 0 {
		if c.Quick {
			c.ObjectSize = 32 << 10
		} else {
			c.ObjectSize = 256 << 10
		}
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 4 << 10
	}
	if c.UploadSlots <= 0 {
		switch c.Scenario {
		case Freerider:
			c.UploadSlots = 1 // scarcity: exchange priority must matter
		case Adversary:
			c.UploadSlots = 2 // scarce, but with headroom for partial throttling
		default:
			c.UploadSlots = 4
		}
	}
	if c.BlockDelay <= 0 && (c.Scenario == Freerider || c.Scenario == Adversary || c.Scenario == Medfail) {
		// Paced slots give ring negotiation time to preempt, as in the
		// paper's fixed-rate transfer model — and stretch medfail
		// transfers so shard kills land while blocks are in flight.
		c.BlockDelay = time.Millisecond
	}
	if c.WantsPerNode <= 0 {
		c.WantsPerNode = 2
	}
	if c.ProvidersPerWant <= 0 {
		c.ProvidersPerWant = 6
	}
	if c.FreeriderFrac == 0 && c.Scenario == Freerider {
		c.FreeriderFrac = 0.3
	}
	if c.FreeriderFrac < 0 || c.FreeriderFrac > 0.9 {
		return fmt.Errorf("swarm: FreeriderFrac %g out of range [0, 0.9]", c.FreeriderFrac)
	}
	if c.CorruptFrac == 0 && (c.Scenario == Cheater || c.Scenario == Medfail) {
		c.CorruptFrac = 0.3
	}
	if c.CorruptFrac < 0 || c.CorruptFrac > 0.9 {
		return fmt.Errorf("swarm: CorruptFrac %g out of range [0, 0.9]", c.CorruptFrac)
	}
	if c.Scenario == Adversary && c.AdaptiveFrac == 0 && c.WhitewashFrac == 0 && c.PartialFrac == 0 {
		// Default adversary classes, shrunk to whatever room an already-set
		// FreeriderFrac leaves under the 0.9 cap: a command naming only
		// -frac must not be rejected over fractions it never specified.
		d := min(0.15, max(0, (0.9-c.FreeriderFrac)/3))
		c.AdaptiveFrac, c.WhitewashFrac, c.PartialFrac = d, d, d
	}
	for _, f := range []float64{c.AdaptiveFrac, c.WhitewashFrac, c.PartialFrac} {
		if f < 0 || f > 0.9 {
			return fmt.Errorf("swarm: adversary fraction %g out of range [0, 0.9]", f)
		}
	}
	if sum := c.AdaptiveFrac + c.WhitewashFrac + c.PartialFrac + c.FreeriderFrac; sum > 0.9 {
		return fmt.Errorf("swarm: adversary fractions sum to %g, want <= 0.9 (sharers must remain)", sum)
	}
	if c.AdaptivePatience <= 0 {
		c.AdaptivePatience = 500 * time.Millisecond
		if c.Quick {
			c.AdaptivePatience = 200 * time.Millisecond
		}
	}
	if c.WhitewashInterval <= 0 {
		c.WhitewashInterval = 200 * time.Millisecond
		if c.Quick {
			c.WhitewashInterval = 80 * time.Millisecond
		}
	}
	if c.Restarts <= 0 && c.Scenario == Churn {
		if c.Quick {
			c.Restarts = 60
		} else {
			c.Restarts = 200
		}
	}
	if c.ChurnInterval <= 0 {
		c.ChurnInterval = 5 * time.Millisecond
	}
	if c.Timeout <= 0 {
		if c.Quick {
			c.Timeout = 60 * time.Second
		} else {
			c.Timeout = 5 * time.Minute
		}
	}
	return nil
}

// directory is the shared peer-id -> address lookup service; restarts
// re-register under fresh addresses.
type directory struct {
	mu    sync.Mutex
	addrs map[core.PeerID]string
}

func (d *directory) set(id core.PeerID, addr string) {
	d.mu.Lock()
	d.addrs[id] = addr
	d.mu.Unlock()
}

func (d *directory) lookup(id core.PeerID) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.addrs[id]
	return a, ok
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
	// departAt schedules the wave scenario's session end: once it passes and
	// the peer's own wants have settled, a monitor closes the node for good.
	// Zero means the peer stays to the end.
	departAt time.Duration
}

// current returns the peer's live node (it changes across churn restarts).
func (p *peerState) current() *node.Node {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.node
}

// class returns the peer's strategy-class label.
func (p *peerState) class() string { return p.strat.Name }

// shareNow reports whether the peer's next node should serve others:
// its strategy's standing policy, or an adaptive flip.
func (p *peerState) shareNow() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.strat.Share || p.forcedShare
}

// currentID returns the peer's current identity.
func (p *peerState) currentID() core.PeerID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.id
}

// swarmRun is the orchestrator state for one Run.
type swarmRun struct {
	cfg     Config
	tr      transport.Transport
	dir     *directory
	oracle  map[catalog.ObjectID][][32]byte
	peers   []*peerState
	cluster *mediator.Cluster
	// kills counts medfail's shard kill/restart cycles; flagsLost counts
	// flagged cheaters a restart of the durable tier forgot, which must stay
	// zero. Both are written by the shard killer (joined via monitors) and
	// the post-run durability check, so collect reads them race-free.
	kills     int
	flagsLost int
	rng       *rng.RNG
	// replBase is the process-wide count of replication records mediator
	// links had dropped before this run's tier came up.
	replBase uint64
	// rec accumulates the run's replayable trace when cfg.Record is set; nil
	// otherwise. Safe for the waiter goroutines' concurrent use.
	rec     *workload.Recorder
	start   time.Time
	giveUp  chan struct{} // closed when the run deadline expires
	waiters sync.WaitGroup
	// monitors tracks the adversary supervision goroutines (adaptive flips,
	// whitewash churns); they exit once their peer's wants settle, and Run
	// joins them before collecting so no respawn races teardown.
	monitors sync.WaitGroup
	// idMu guards idSeq, the allocator for fresh whitewash identities.
	idMu  sync.Mutex
	idSeq int
}

// freshID allocates an identity no initial peer ever held, for a
// whitewasher rejoining under a new name. idSeq is seeded past the highest
// id buildWorld assigned (see seedIDAllocator), so fresh identities can
// never collide with a live peer.
func (s *swarmRun) freshID() core.PeerID {
	s.idMu.Lock()
	defer s.idMu.Unlock()
	s.idSeq++
	return core.PeerID(s.idSeq)
}

// seedIDAllocator starts the fresh-identity sequence past every initial id.
func (s *swarmRun) seedIDAllocator() {
	maxID := s.cfg.Nodes
	for _, p := range s.peers {
		if int(p.id) > maxID {
			maxID = int(p.id)
		}
	}
	s.idMu.Lock()
	s.idSeq = maxID
	s.idMu.Unlock()
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

// Run executes one swarm scenario and aggregates the outcome.
func Run(cfg Config) (*Result, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	s := &swarmRun{
		cfg:    cfg,
		tr:     cfg.Transport,
		dir:    &directory{addrs: make(map[core.PeerID]string)},
		oracle: make(map[catalog.ObjectID][][32]byte),
		rng:    rng.New(cfg.Seed),
		giveUp: make(chan struct{}),
	}
	if cfg.Record != nil {
		s.rec = workload.NewRecorder()
	}
	if s.tr == nil {
		if cfg.TCP {
			s.tr = transport.TCP{ReadTimeout: 30 * time.Second, WriteTimeout: 30 * time.Second}
		} else {
			s.tr = transport.NewMem()
		}
	}
	for obj := 1; obj <= cfg.Objects; obj++ {
		id := catalog.ObjectID(obj)
		s.oracle[id] = blockDigests(objData(id, cfg.ObjectSize), cfg.BlockSize)
	}

	// The mediator tier comes up before the world: mediated nodes need
	// bootstrap seeds at spawn time.
	s.replBase = perfstats.Current().MedReplDropped
	cluster, err := mediator.NewClusterOpts(s.tr, s.mediatorAddrs(), func(o catalog.ObjectID) ([][32]byte, bool) {
		d, ok := s.oracle[o]
		return d, ok
	}, mediator.ClusterOpts{DataDir: cfg.MedDataDir})
	if err != nil {
		return nil, fmt.Errorf("swarm: mediator tier: %w", err)
	}
	s.cluster = cluster
	defer cluster.Close()

	if err := s.buildWorld(); err != nil {
		s.teardown()
		return nil, err
	}
	s.seedIDAllocator()
	s.logf("world: %s", s.describe())
	if s.rec != nil {
		// Initial holdings are t=0 facts; demand and session edges are
		// recorded as they happen by the waiters and departure monitors.
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
	s.launchDepartures()
	s.superviseAdversaries()
	killerDone := make(chan struct{})
	if cfg.Scenario == Medfail {
		s.monitors.Add(1)
		go s.shardKiller(killerDone)
	}
	if cfg.Scenario == Churn {
		s.churn()
	}
	s.waiters.Wait()
	// Stop the shard killer before auditing, then join the adversary
	// monitors before touching nodes: a mid-respawn whitewasher must not
	// race teardown.
	close(killerDone)
	s.monitors.Wait()

	flagged := 0
	switch cfg.Scenario {
	case Cheater:
		if s.mediated() {
			// Striped cheater runs flag organically: every corrupt origin's
			// stripe audits reject at the tier. Converge instead of running
			// the orchestrator's synthetic audits, so the count proves the
			// live detection path worked.
			flagged = s.convergeCheaterFlags()
		} else {
			flagged = s.auditCheaters()
		}
	case Medfail:
		flagged = s.convergeCheaterFlags()
		if cfg.MedDataDir != "" {
			// The final durability check: restart the whole tier and demand
			// every flag come back from the logs alone.
			s.verifyFlagDurability()
		}
	}
	elapsed := time.Since(s.start)

	res := s.collect(elapsed, flagged)
	if s.rec != nil {
		res.TraceEvents = s.rec.Len()
		trace := s.rec.Trace(workload.Header{
			Scenario:    string(s.cfg.Scenario),
			Nodes:       s.cfg.Nodes,
			Objects:     s.cfg.Objects,
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

// mediated reports whether nodes in this scenario speak the mediated block
// path natively: the mediator-tier torture scenarios always do, and any
// scenario does once downloads stripe across origins (the harness's choice,
// not the node's — the tier is up in every run anyway).
func (s *swarmRun) mediated() bool {
	return s.cfg.Scenario == Medfail || s.cfg.Stripe > 1
}

// shardKiller kills and restarts mediator shards round-robin until its
// budget is spent, the run deadline hits, or the workload settles. The
// first kill lands immediately — a quick world can finish inside one kill
// interval, and a medfail run that never lost a shard proves nothing.
func (s *swarmRun) shardKiller(done <-chan struct{}) {
	defer s.monitors.Done()
	for i := 0; i < s.cfg.MedKills; i++ {
		if i > 0 {
			t := time.NewTimer(s.cfg.MedKillInterval)
			select {
			case <-t.C:
			case <-done:
				t.Stop()
				return
			case <-s.giveUp:
				t.Stop()
				return
			}
		}
		shard := i % s.cluster.Shards()
		s.logf("killing mediator shard %d (cycle %d/%d)", shard, i+1, s.cfg.MedKills)
		s.restartShard(shard)
	}
}

// restartShard kills and restarts one mediator shard. Over a durable tier
// every cheater flagged before must still be flagged after, and each one the
// tier forgot is counted in flagsLost; in-memory shards are allowed to
// forget.
func (s *swarmRun) restartShard(shard int) {
	var before []core.PeerID
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

// flaggedCheaters snapshots every corrupt peer the tier currently has
// flagged — the detection history a durable tier must not lose.
func (s *swarmRun) flaggedCheaters() []core.PeerID {
	var out []core.PeerID
	for _, p := range s.peers {
		if !p.strat.Corrupt {
			continue
		}
		if id := p.currentID(); s.cluster.Flagged(id) > 0 {
			out = append(out, id)
		}
	}
	return out
}

// verifyFlagDurability restarts every shard after detection has converged.
// A shard's state after its restart comes from its write-ahead log alone
// (flags replicate only when a verdict is reached), so any flag that does
// not survive the sweep is lost history.
func (s *swarmRun) verifyFlagDurability() {
	for i := 0; i < s.cluster.Shards(); i++ {
		s.restartShard(i)
	}
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
	id := p.currentID()
	cfg := node.Config{
		ID:           id,
		Addr:         s.nodeAddr(),
		Transport:    s.tr,
		Lookup:       s.dir.lookup,
		Share:        p.shareNow(),
		Corrupt:      p.strat.Corrupt,
		UploadSlots:  p.strat.SlotCap(s.cfg.UploadSlots),
		BlockSize:    s.cfg.BlockSize,
		BlockDelay:   s.cfg.BlockDelay,
		TickInterval: 5 * time.Millisecond,
		StallTicks:   10,
		MaxRetries:   1 << 20, // the harness owns giving up, via Timeout
	}
	if s.cfg.Scenario == Cheater {
		cfg.TrustedDigests = func(o catalog.ObjectID) ([][32]byte, bool) {
			d, ok := s.oracle[o]
			return d, ok
		}
	}
	if s.mediated() {
		cfg.Stripe = s.cfg.Stripe
		if p.medc == nil {
			mc, err := medclient.New(medclient.Config{
				Transport: s.tr,
				Seeds:     s.cluster.Addrs(),
				Backoff:   10 * time.Millisecond,
			})
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
	s.dir.set(id, n.Addr())
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

// await drives one want to completion or the run deadline. Wave wants wait
// out their scheduled arrival first; a deadline expiring before then fails
// the want like any other unfinished download.
func (s *swarmRun) await(p *peerState, w *wantState) {
	defer s.waiters.Done()
	if w.startAt > 0 {
		t := time.NewTimer(w.startAt)
		select {
		case <-t.C:
		case <-s.giveUp:
			t.Stop()
			s.fail(w)
			return
		}
	}
	if s.rec != nil {
		s.rec.Request(time.Since(s.start).Seconds(), int(p.currentID()), int(w.obj))
	}
	backoff := 2 * time.Millisecond
	for {
		nd := p.current()
		providers := make(map[core.PeerID]string, len(w.providers))
		for _, pid := range w.providers {
			if addr, ok := s.dir.lookup(pid); ok {
				providers[pid] = addr
			}
		}
		w.mu.Lock()
		w.attempts++
		w.mu.Unlock()
		ch := nd.Download(w.obj, providers)
		select {
		case err := <-ch:
			if err == nil {
				w.mu.Lock()
				w.done = true
				w.elapsed = time.Since(s.start)
				w.mu.Unlock()
				return
			}
			// Closed mid-churn, or sources exhausted: back off and retry
			// against the current node until the run deadline.
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-s.giveUp:
				t.Stop()
				s.fail(w)
				return
			}
			if backoff < 50*time.Millisecond {
				backoff *= 2
			}
		case <-s.giveUp:
			s.fail(w)
			return
		}
	}
}

func (s *swarmRun) fail(w *wantState) {
	w.mu.Lock()
	w.failed = true
	w.mu.Unlock()
}

// allSettled reports whether every want in ws has finished, either way.
func allSettled(ws []*wantState) bool {
	for _, w := range ws {
		w.mu.Lock()
		settled := w.done || w.failed
		w.mu.Unlock()
		if !settled {
			return false
		}
	}
	return true
}

// launchDepartures arms one monitor per peer with a scheduled session end
// (wave cohorts). Monitors join via s.monitors, like the adversary ones.
func (s *swarmRun) launchDepartures() {
	for _, p := range s.peers {
		if p.departAt <= 0 {
			continue
		}
		s.monitors.Add(1)
		go s.waveDeparture(p)
	}
}

// waveDeparture takes a cohort peer offline for good: once its scheduled
// session end passes and its own wants have settled, the node closes and the
// departure is recorded. Waiting for the wants matters twice over — a run
// with failed wants is a failed run (exchswarm exits nonzero), and the
// recorded trace must not demand downloads the recorded session never left
// room for.
func (s *swarmRun) waveDeparture(p *peerState) {
	defer s.monitors.Done()
	t := time.NewTimer(p.departAt)
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.giveUp:
		return
	}
	for !allSettled(p.wants) {
		poll := time.NewTimer(10 * time.Millisecond)
		select {
		case <-poll.C:
		case <-s.giveUp:
			poll.Stop()
			return
		}
	}
	p.current().Close()
	if s.rec != nil {
		s.rec.Depart(time.Since(s.start).Seconds(), int(p.currentID()))
	}
}

// churn repeatedly closes a random peer and restarts it under the same
// identity with a fresh address: in-flight transfers die, waiters re-issue,
// and every shutdown path runs hundreds of times per scenario.
func (s *swarmRun) churn() {
	for i := 0; i < s.cfg.Restarts; i++ {
		select {
		case <-s.giveUp:
			s.logf("churn: deadline hit after %d restarts", i)
			return
		default:
		}
		p := s.peers[s.rng.Intn(len(s.peers))]
		old := p.current()
		old.Close()
		if err := s.spawn(p); err != nil {
			// Transport refused (e.g. exhausted ports); count and move on —
			// the waiters keep retrying against the last known address.
			s.logf("churn: restart %d failed: %v", p.currentID(), err)
			continue
		}
		p.mu.Lock()
		p.restarts++
		p.mu.Unlock()
		t := time.NewTimer(s.cfg.ChurnInterval)
		select {
		case <-t.C:
		case <-s.giveUp:
			t.Stop()
			s.logf("churn: deadline hit after %d restarts", i+1)
			return
		}
	}
}

// superviseAdversaries arms one monitor per adaptive and whitewashing peer.
// Monitors exit once their peer's wants settle (or the run deadline hits),
// so Run can join them before teardown.
func (s *swarmRun) superviseAdversaries() {
	var deps map[*peerState][]*wantState
	for _, p := range s.peers {
		switch {
		case p.strat.Adaptive:
			if deps == nil {
				deps = s.dependentWants()
			}
			s.monitors.Add(1)
			go s.adaptiveMonitor(p, deps[p])
		case p.strat.Whitewash:
			s.monitors.Add(1)
			go s.whitewashMonitor(p)
		}
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

// allDone reports whether every want in ws has completed.
func allDone(ws []*wantState) bool {
	for _, w := range ws {
		w.mu.Lock()
		done := w.done
		w.mu.Unlock()
		if !done {
			return false
		}
	}
	return true
}

// respawnUntil retries spawning p until it succeeds or the run deadline
// hits. A transient transport refusal (the port exhaustion churn() also
// anticipates) must not strand a closed adversary node: its held objects
// may be the only source for other peers' wants.
func (s *swarmRun) respawnUntil(p *peerState, retry time.Duration) bool {
	for {
		err := s.spawn(p)
		if err == nil {
			return true
		}
		s.logf("respawn %d failed (retrying): %v", p.currentID(), err)
		t := time.NewTimer(retry)
		select {
		case <-t.C:
		case <-s.giveUp:
			t.Stop()
			return false
		}
	}
}

// adaptiveMonitor implements "contributes only while refused" live: after
// the patience window the peer restarts its node with sharing enabled
// unless, within its patience, its own downloads were served and nobody is
// still waiting on an object it holds. Checking the dependents matters:
// whoever flips first can serve its partner before the partner's own
// monitor fires, and a pure self-check would then strand the early server.
// Once coerced it keeps serving — withdrawing service mid-transfer would
// strand the peer it is exchanging with.
func (s *swarmRun) adaptiveMonitor(p *peerState, dependents []*wantState) {
	defer s.monitors.Done()
	t := time.NewTimer(s.cfg.AdaptivePatience)
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.giveUp:
		return
	}
	if allDone(p.wants) && allDone(dependents) {
		return // served, and nothing demands it: it never contributes
	}
	p.current().Close()
	p.mu.Lock()
	p.forcedShare = true
	p.flips++
	p.restarts++
	p.mu.Unlock()
	s.respawnUntil(p, s.cfg.AdaptivePatience)
}

// whitewashMonitor periodically sheds the peer's identity: it closes the
// node and respawns it under a fresh PeerID, dropping its queue positions
// and download progress — exactly the state a whitewasher launders away.
// The churn period doubles after every churn so a loaded swarm always
// leaves the peer a window wide enough to finish its downloads (without the
// back-off a slow run could reset the same transfer forever), while
// completion is still polled at the base interval so the monitor — and with
// it Run's teardown — exits promptly once the wants settle.
func (s *swarmRun) whitewashMonitor(p *peerState) {
	defer s.monitors.Done()
	poll := s.cfg.WhitewashInterval
	churnEvery := s.cfg.WhitewashInterval
	nextChurn := time.Now().Add(churnEvery)
	t := time.NewTimer(poll)
	defer t.Stop()
	for {
		select {
		case <-t.C:
		case <-s.giveUp:
			return
		}
		if allDone(p.wants) {
			return
		}
		if time.Now().Before(nextChurn) {
			t.Reset(poll)
			continue
		}
		p.current().Close()
		p.mu.Lock()
		p.id = s.freshID()
		p.whitewashes++
		p.restarts++
		p.mu.Unlock()
		if !s.respawnUntil(p, poll) {
			return // run deadline hit while the transport kept refusing
		}
		churnEvery *= 2
		nextChurn = time.Now().Add(churnEvery)
		t.Reset(poll)
	}
}

// auditClient builds a shard-aware client for the orchestrator's own
// audits, bootstrapped at the tier's current addresses.
func (s *swarmRun) auditClient() (*medclient.Client, error) {
	return medclient.New(medclient.Config{
		Transport: s.tr,
		Seeds:     s.cluster.Addrs(),
		Backoff:   10 * time.Millisecond,
		Logf:      s.cfg.Logf,
	})
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

// auditCheaters audits every corrupt node concurrently through the
// shard-aware client; each audit routes to whichever shard owns the
// object's partition.
func (s *swarmRun) auditCheaters() int {
	cl, err := s.auditClient()
	if err != nil {
		s.logf("audit client: %v", err)
		return 0
	}
	defer cl.Close()
	var wg sync.WaitGroup
	flagged := make([]bool, len(s.peers))
	for i, p := range s.peers {
		if p.strat.Corrupt {
			wg.Add(1)
			go func(i int, id core.PeerID) {
				defer wg.Done()
				flagged[i] = s.auditOne(cl, id)
			}(i, p.currentID())
		}
	}
	wg.Wait()
	n := 0
	for _, f := range flagged {
		if f {
			n++
		}
	}
	return n
}

// convergeCheaterFlags drives medfail's acceptance criterion: after the
// shard killer stops, every corrupt seed must end up flagged on the
// (surviving) tier. Organic flags from the mediated block path count; any
// cheater still unflagged — it never won a manifest race, or its flag died
// with a killed shard — is re-audited until the tier-wide count converges
// or the run deadline hits.
func (s *swarmRun) convergeCheaterFlags() int {
	corrupt := make([]core.PeerID, 0)
	for _, p := range s.peers {
		if p.strat.Corrupt {
			corrupt = append(corrupt, p.currentID())
		}
	}
	if len(corrupt) == 0 {
		return 0
	}
	cl, err := s.auditClient()
	if err != nil {
		s.logf("audit client: %v", err)
		return 0
	}
	defer cl.Close()
	for {
		missing := 0
		for _, id := range corrupt {
			if s.cluster.Flagged(id) > 0 {
				continue
			}
			if !s.auditOne(cl, id) {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		s.logf("cheater flags not yet converged: %d missing", missing)
		t := time.NewTimer(20 * time.Millisecond)
		select {
		case <-t.C:
		case <-s.giveUp:
			t.Stop()
			s.logf("deadline hit with %d cheater flags missing", missing)
			flaggedNow := 0
			for _, id := range corrupt {
				if s.cluster.Flagged(id) > 0 {
					flaggedNow++
				}
			}
			return flaggedNow
		}
	}
	return len(corrupt)
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
