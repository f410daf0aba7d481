// Package sim implements the paper's simulation environment (Section IV-A):
// a file-sharing system of peers with fixed asymmetric upload/download
// capacity split into fixed-rate transfer slots, an overprovisioned core
// network, category/object popularity workloads, incoming request queues,
// multi-source partial downloads, and the exchange-priority scheduler that
// is the subject of the study.
package sim

import (
	"fmt"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/strategy"
	"barter/internal/workload"
)

// Ranker orders non-exchange service. The default (nil) is
// first-come-first-served by arrival time. The credit-mechanism baselines
// (eMule queue rank, KaZaA participation level) plug in here.
//
// The engine counts blocks when something reads them, not as they arrive
// (blocks.go), so a Ranker's books are exact only where the engine brought
// them up to date: before Score it credits every open session of the server
// and of the requester. Score must therefore read only books of transfers
// with the server or the requester at one end, and OnTransfer must add up:
// one call with the kbits of several blocks must leave the books as that
// many calls of one block each would.
type Ranker interface {
	// Score returns the service priority of requester's request at server;
	// the waiting request with the highest score is served first. waited is
	// how long the request has been queued, in seconds.
	Score(server, requester core.PeerID, waited float64) float64
	// OnTransfer records kbits flowing from server src to requester dst so
	// the mechanism can update its books.
	OnTransfer(src, dst core.PeerID, kbits float64)
}

// WhitewashResetter is implemented by Rankers whose books can be wiped for a
// single peer. When a whitewashing peer rejoins under a fresh identity the
// engine calls OnWhitewash so any mechanism keyed by identity (credit
// histories, participation levels) forgets it — exactly the state the attack
// sheds in a real network.
type WhitewashResetter interface {
	OnWhitewash(peer core.PeerID)
}

// Config holds every parameter of one simulation run. DefaultConfig returns
// the paper's Table II values.
type Config struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed uint64
	// NumPeers is the system size (Table II: 200).
	NumPeers int
	// DownloadKbps and UploadKbps are per-peer access capacities
	// (Table II: 800 down / 80 up).
	DownloadKbps float64
	UploadKbps   float64
	// SlotKbps is the fixed transfer-slot rate (Table II: 10); a peer has
	// UploadKbps/SlotKbps upload slots and DownloadKbps/SlotKbps download
	// slots, and every transfer runs at exactly one slot's rate.
	SlotKbps float64

	// Catalog is the workload model (categories, popularity factors).
	Catalog catalog.Config

	// ObjectKbits is the size of every object (Table II: 20 MB for all
	// objects = 160,000 kbit with decimal MB).
	ObjectKbits float64
	// BlockKbits is the fixed exchange/transfer block size; a session
	// delivers one block per block time, BlockKbits/SlotKbps seconds, and
	// an object is ObjectKbits/BlockKbits blocks, rounded up.
	BlockKbits float64

	// StorageMinObjects/Max bound the uniform draw of per-peer storage
	// capacity in objects (Table II: uniform(5, 40)).
	StorageMinObjects int
	StorageMaxObjects int

	// IRQCapacity caps the incoming request queue (Table II: 1000).
	IRQCapacity int
	// MaxPending caps concurrently outstanding object downloads per peer
	// (Table II: 6).
	MaxPending int

	// Mix declares the population's strategy classes (see internal/strategy):
	// an ordered list of weighted peer behaviors — sharers, static
	// free-riders, adaptive free-riders, whitewashers, partial sharers. Nil
	// means strategy.LegacyMix(0.5), Table II's population: half the peers
	// share nothing.
	Mix strategy.Mix

	// AdaptivePatience is how long (simulated seconds) an adaptive
	// free-rider lets one of its downloads starve before it starts
	// contributing, and how stale a pending download must be to keep it
	// contributing (default 600).
	AdaptivePatience float64
	// WhitewashInterval is the period (simulated seconds) between identity
	// churns of whitewashing peers (default 7200). Each churn drops the
	// peer's queue positions and pending downloads and resets any
	// WhitewashResetter ranker state for it.
	WhitewashInterval float64

	// Policy selects the exchange mechanism under test.
	Policy core.Policy

	// SearchBudget bounds each ring search, beside searchFanout (see
	// core.Graph); peers bound their search effort in any real deployment.
	SearchBudget int

	// Duration is the simulated horizon in seconds, below 2^53 ns (about
	// 104 days: the clock is whole nanoseconds); WarmupFrac is the leading
	// fraction of the run excluded from all metrics.
	Duration   float64
	WarmupFrac float64

	// EvictionInterval is how often peers prune storage back to capacity
	// (seconds); RetryInterval is the back-off before a peer retries when
	// it cannot find any obtainable object.
	EvictionInterval float64
	RetryInterval    float64

	// Workload, when set, replaces the closed-loop demand model (peers
	// topping up to MaxPending) with the spec's open-loop temporal demand:
	// request arrivals follow the spec's demand curve, objects follow its
	// popularity model, and cohort peers hold their arrive/depart sessions.
	// Arrivals at a peer already at MaxPending are dropped and counted in
	// Result.WorkloadDropped. Mutually exclusive with Trace.
	Workload *workload.Spec

	// Trace, when set, replays a recorded run (typically a swarm run recorded
	// with exchswarm -record): initial holdings, request arrivals, and
	// session events come from the trace instead of any demand model, and
	// New overrides NumPeers, object geometry, and Duration from the trace
	// header so the replayed world matches the recorded one. All replayed
	// peers share (strategy questions belong to Workload runs). Mutually
	// exclusive with Workload.
	Trace *workload.Trace

	// Ranker orders non-exchange service; nil means FIFO.
	Ranker Ranker

	// DisablePreemption turns off reclaiming non-exchange slots for newly
	// feasible exchanges (ablation; the paper's mechanism preempts).
	DisablePreemption bool
}

// The lookup and search bounds the paper leaves to an implementation.
const (
	// lookupMax is how many current holders a lookup discovers (the paper
	// locates "up to a certain fraction of peers that currently have the
	// object"; lookup details are out of scope there and here).
	lookupMax = 10
	// requestFanout is to how many discovered holders a request is actually
	// transmitted ("it actually issues requests to only a subset").
	requestFanout = 4
	// searchFanout is how many in-edges of a node a ring search explores
	// (core.Graph.Fanout).
	searchFanout = 32
)

// DefaultConfig returns the paper's Table II parameters with engine knobs at
// their standard values.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		NumPeers:     200,
		DownloadKbps: 800,
		UploadKbps:   80,
		SlotKbps:     10,
		Catalog: catalog.Config{
			Categories:            300,
			ObjectsPerCategoryMin: 1,
			ObjectsPerCategoryMax: 300,
			CategoryFactor:        0.2,
			ObjectFactor:          0.2,
			CategoriesPerPeerMin:  1,
			CategoriesPerPeerMax:  8,
		},
		ObjectKbits:       160_000, // 20 MB
		BlockKbits:        500,
		StorageMinObjects: 5,
		StorageMaxObjects: 40,
		IRQCapacity:       1000,
		MaxPending:        6,
		AdaptivePatience:  600,
		WhitewashInterval: 7200,
		Policy:            core.Policy2N,
		SearchBudget:      core.DefaultSearchBudget,
		Duration:          200_000,
		WarmupFrac:        0.25,
		EvictionInterval:  1_800,
		RetryInterval:     300,
	}
}

// maxSeconds is where the nanosecond clock stops being exact: the event
// queue keeps float64 instants, which hold every whole number below 2^53.
const maxSeconds = 1 << 53 / 1e9

// Validate reports the first configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.NumPeers < 2:
		return fmt.Errorf("sim: NumPeers = %d, want >= 2", c.NumPeers)
	case c.SlotKbps <= 0:
		return fmt.Errorf("sim: SlotKbps = %v, want > 0", c.SlotKbps)
	case c.UploadKbps < c.SlotKbps:
		return fmt.Errorf("sim: UploadKbps %v below one slot (%v)", c.UploadKbps, c.SlotKbps)
	case c.DownloadKbps < c.SlotKbps:
		return fmt.Errorf("sim: DownloadKbps %v below one slot (%v)", c.DownloadKbps, c.SlotKbps)
	case c.ObjectKbits <= 0 || c.BlockKbits <= 0:
		return fmt.Errorf("sim: ObjectKbits/BlockKbits must be positive")
	case c.BlockKbits > c.ObjectKbits:
		return fmt.Errorf("sim: BlockKbits %v exceeds ObjectKbits %v", c.BlockKbits, c.ObjectKbits)
	case c.StorageMinObjects <= 0 || c.StorageMaxObjects < c.StorageMinObjects:
		return fmt.Errorf("sim: storage range [%d, %d] invalid", c.StorageMinObjects, c.StorageMaxObjects)
	case c.IRQCapacity <= 0:
		return fmt.Errorf("sim: IRQCapacity = %d, want > 0", c.IRQCapacity)
	case c.MaxPending <= 0:
		return fmt.Errorf("sim: MaxPending = %d, want > 0", c.MaxPending)
	case c.Duration <= 0:
		return fmt.Errorf("sim: Duration = %v, want > 0", c.Duration)
	case c.Duration >= maxSeconds:
		return fmt.Errorf("sim: Duration = %v s, want below 2^53 ns (about 104 days)", c.Duration)
	case c.BlockKbits/c.SlotKbps < 1e-9:
		return fmt.Errorf("sim: a block takes %v s on a slot, want at least a nanosecond", c.BlockKbits/c.SlotKbps)
	case c.WarmupFrac < 0 || c.WarmupFrac >= 1:
		return fmt.Errorf("sim: WarmupFrac = %v, want [0, 1)", c.WarmupFrac)
	case c.EvictionInterval <= 0 || c.RetryInterval <= 0:
		return fmt.Errorf("sim: EvictionInterval and RetryInterval must be positive")
	case c.AdaptivePatience < 0 || c.WhitewashInterval < 0:
		return fmt.Errorf("sim: AdaptivePatience and WhitewashInterval must be non-negative")
	case max(c.EvictionInterval, c.RetryInterval, c.AdaptivePatience, c.WhitewashInterval) >= maxSeconds:
		return fmt.Errorf("sim: every interval must be below 2^53 ns (about 104 days)")
	}
	if c.Mix != nil {
		if err := c.Mix.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		for _, cl := range c.Mix {
			if cl.Corrupt {
				return fmt.Errorf("sim: strategy %q: corrupt peers are only meaningful in the live swarm (block validation is not simulated)", cl.Name)
			}
		}
	}
	if c.Workload != nil && c.Trace != nil {
		return fmt.Errorf("sim: Workload and Trace are mutually exclusive")
	}
	if c.Workload != nil {
		if err := c.Workload.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	if c.Trace != nil {
		if err := c.Trace.Validate(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	if err := c.Policy.Validate(); err != nil {
		return err
	}
	return c.Catalog.Validate()
}

// EffectiveMix returns the population mix the run uses: the explicit Mix, or
// Table II's two-class population.
func (c Config) EffectiveMix() strategy.Mix {
	if c.Mix != nil {
		return c.Mix
	}
	return strategy.LegacyMix(0.5)
}

// adaptivePatience and whitewashInterval fall back to the documented
// defaults when a caller builds a Config by hand and leaves them zero, so
// adaptive and whitewashing classes always have a working clock.
func (c Config) adaptivePatience() float64 {
	if c.AdaptivePatience > 0 {
		return c.AdaptivePatience
	}
	return 600
}

func (c Config) whitewashInterval() float64 {
	if c.WhitewashInterval > 0 {
		return c.WhitewashInterval
	}
	return 7200
}

// UploadSlots returns the per-peer number of upload slots.
func (c Config) UploadSlots() int { return int(c.UploadKbps / c.SlotKbps) }

// DownloadSlots returns the per-peer number of download slots.
func (c Config) DownloadSlots() int { return int(c.DownloadKbps / c.SlotKbps) }
