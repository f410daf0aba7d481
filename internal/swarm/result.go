package swarm

import (
	"fmt"
	"strings"
	"time"

	"barter/internal/core"
	"barter/internal/metrics"
	"barter/internal/node"
	"barter/internal/strategy"
)

// PeerResult is one node's outcome: its workload bookkeeping plus the live
// node's own protocol counters.
type PeerResult struct {
	// ID is the peer's current identity (a whitewasher's final one).
	ID core.PeerID
	// Class is the peer's strategy-class label (see internal/strategy).
	Class     string
	Restarts  int
	Wanted    int
	Completed int
	Failed    int
	// Attempts counts Download issuances across retries: above Wanted it
	// measures how often churn or source exhaustion forced a re-issue.
	Attempts int
	// Flips counts adaptive starvation-into-contribution transitions;
	// Whitewashes counts identity churns.
	Flips       int
	Whitewashes int
	// MeanCompletion averages this peer's completed download times
	// (zero with no completions).
	MeanCompletion time.Duration
	Stats          node.Stats
}

// Result aggregates one swarm run.
type Result struct {
	Scenario      Scenario
	Nodes         int
	Objects       int
	FreeriderFrac float64
	Elapsed       time.Duration
	Peers         []PeerResult
	// Wanted/Completed/Failed total the per-peer counts; Restarts totals
	// churn cycles; Flips and Whitewashes total the adversary scenario's
	// adaptive transitions and identity churns.
	Wanted      int
	Completed   int
	Failed      int
	Restarts    int
	Flips       int
	Whitewashes int
	// Cheaters counts the corrupt peers in the world; Flagged, those the
	// mediator tier held a flag against (which only the nodes' own audits
	// and evidence put there) when the run looked: before each shard kill
	// and once it settled. HonestFlagged counts the other peers the tier
	// flags at the end, which must be none.
	Cheaters      int
	Flagged       int
	HonestFlagged int
	// Mediators is the tier size, zero when the nodes used none and no tier
	// started. ShardKills counts medfail's shard kill/restart cycles,
	// RestartsFailed the restarts that left a shard down, and FlagsLost the
	// flagged cheaters a restart of a durable tier (Config.MedDataDir) —
	// mid-run, or the final one of every shard — forgot. ReplDropped counts
	// the deposits and flags a shard could not copy to an object's other
	// owner (down, or its link's queue full), as around every kill; WALLost
	// the records a durable tier's logs failed to append, which a restart
	// forgets. Both are this run's own tier's (mediator.Cluster.Counts),
	// killed shards included.
	Mediators      int
	ShardKills     int
	RestartsFailed int
	FlagsLost      int
	ReplDropped    int
	WALLost        int
	// TraceEvents counts the events recorded into Config.Record (zero when
	// the run was not recorded).
	TraceEvents int
}

// Err is the run's verdict: nil when every download completed and, on a run
// whose nodes used a mediator tier, the tier flagged every cheater, lost no
// flag, and flagged nobody else — the paper's Section III-B claim, both
// halves. A run without a tier rejects a cheater's junk block by block, so
// its downloads are its verdict.
func (r *Result) Err() error {
	switch {
	case r.Failed > 0:
		return fmt.Errorf("%d of %d downloads failed", r.Failed, r.Wanted)
	case r.Mediators > 0 && r.Flagged < r.Cheaters:
		return fmt.Errorf("mediator tier flagged %d of %d cheaters", r.Flagged, r.Cheaters)
	case r.RestartsFailed > 0:
		return fmt.Errorf("%d mediator shard restarts failed", r.RestartsFailed)
	case r.FlagsLost > 0:
		return fmt.Errorf("%d flagged cheaters forgotten across mediator restarts", r.FlagsLost)
	case r.WALLost > 0:
		return fmt.Errorf("mediator write-ahead logs lost %d records", r.WALLost)
	case r.HonestFlagged > 0:
		return fmt.Errorf("mediator tier flagged %d honest peers", r.HonestFlagged)
	}
	return nil
}

// ClassMean returns the mean completion time over every finished download
// of the given class, and how many downloads that covers.
func (r *Result) ClassMean(class string) (time.Duration, int) {
	var sum time.Duration
	n := 0
	for i := range r.Peers {
		p := &r.Peers[i]
		if p.Class != class || p.Completed == 0 {
			continue
		}
		sum += p.MeanCompletion * time.Duration(p.Completed)
		n += p.Completed
	}
	if n == 0 {
		return 0, 0
	}
	return sum / time.Duration(n), n
}

// Table renders the run as the figure-shaped aggregate the simulator emits:
// mean completion time per peer class, keyed by the free-rider fraction —
// the live counterpart of Figure 12's x-axis. Scenarios without a
// non-sharing class still emit their classes at x = 0.
func (r *Result) Table() *metrics.Table {
	t := &metrics.Table{
		Title:  fmt.Sprintf("swarm %s: %d live nodes", r.Scenario, r.Nodes),
		XLabel: "fraction of non-sharing peers",
		YLabel: "mean download time (seconds)",
	}
	// Classes come from the shared strategy registry, in its canonical
	// order, so live series names line up with the simulator's and columns
	// stay stable across scenarios.
	for _, class := range strategy.CanonicalLabels() {
		if mean, n := r.ClassMean(class); n > 0 {
			t.Append("live/"+class, r.FreeriderFrac, mean.Seconds())
		}
	}
	return t
}

// TSV renders the figure table plus a comment block of run-level counters
// (the same comment-prefixed style exchsim reports carry).
func (r *Result) TSV() string {
	var b strings.Builder
	b.WriteString(r.Table().TSV())
	fmt.Fprintf(&b, "# scenario=%s nodes=%d objects=%d elapsed=%s\n",
		r.Scenario, r.Nodes, r.Objects, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "# downloads: wanted=%d completed=%d failed=%d\n", r.Wanted, r.Completed, r.Failed)
	if r.Restarts > 0 {
		fmt.Fprintf(&b, "# churn: restarts=%d\n", r.Restarts)
	}
	if r.Mediators > 0 {
		fmt.Fprintf(&b, "# mediator: shards=%d cheaters=%d flagged=%d honest_flagged=%d shard_kills=%d restarts_failed=%d flags_lost=%d repl_dropped=%d wal_lost=%d\n",
			r.Mediators, r.Cheaters, r.Flagged, r.HonestFlagged, r.ShardKills, r.RestartsFailed, r.FlagsLost, r.ReplDropped, r.WALLost)
	}
	if r.Flips > 0 || r.Whitewashes > 0 {
		fmt.Fprintf(&b, "# adversary: flips=%d whitewashes=%d\n", r.Flips, r.Whitewashes)
	}
	if r.TraceEvents > 0 {
		fmt.Fprintf(&b, "# trace: events=%d recorded\n", r.TraceEvents)
	}
	return b.String()
}

// PeersTSV renders one row per peer: workload outcome and protocol
// counters, for digging into a run beyond the aggregate.
func (r *Result) PeersTSV() string {
	var b strings.Builder
	b.WriteString("peer\tclass\twanted\tcompleted\tfailed\tattempts\tmean_s\trestarts\tflips\twhitewash\tblocks_sent\tblocks_recv\tblocks_rej\tblocks_stale\texch_blocks\trings\tpreempt\tserved\toverflows\taudits\taudit_rej\tstripes\tstripe_reassign\n")
	for i := range r.Peers {
		p := &r.Peers[i]
		fmt.Fprintf(&b, "%d\t%s\t%d\t%d\t%d\t%d\t%.3f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			p.ID, p.Class, p.Wanted, p.Completed, p.Failed, p.Attempts, p.MeanCompletion.Seconds(),
			p.Restarts, p.Flips, p.Whitewashes,
			p.Stats.BlocksSent, p.Stats.BlocksReceived, p.Stats.BlocksRejected, p.Stats.BlocksStale,
			p.Stats.ExchangeBlocksSent, p.Stats.RingsJoined, p.Stats.Preemptions,
			p.Stats.RequestsServed, p.Stats.SendOverflows,
			p.Stats.MedVerifies, p.Stats.MedRejects,
			p.Stats.StripesGranted, p.Stats.StripesReassigned)
	}
	return b.String()
}

// collect snapshots every peer into a Result. Called after all waiters have
// settled and before teardown, so node Stats are still reachable.
func (s *swarmRun) collect(elapsed time.Duration) *Result {
	res := &Result{
		Scenario: s.cfg.Scenario,
		Nodes:    len(s.peers),
		Objects:  s.objects,
		// The x key is the fraction of peers not contributing faithfully:
		// free-riders plus every strategic class (zero off the adversary
		// scenario), so a sweep over -adaptive/-whitewash/-partial keys each
		// row apart.
		FreeriderFrac:  s.cfg.FreeriderFrac + s.cfg.AdaptiveFrac + s.cfg.WhitewashFrac + s.cfg.PartialFrac,
		Elapsed:        elapsed,
		Flagged:        len(s.caught),
		Mediators:      s.cfg.Mediators,
		ShardKills:     s.kills,
		RestartsFailed: s.restartsFailed,
		FlagsLost:      s.flagsLost,
	}
	if s.cluster != nil {
		tier := s.cluster.Counts()
		res.ReplDropped, res.WALLost = tier.ReplDropped, tier.WALLost
	}
	for _, p := range s.peers {
		pr := PeerResult{Class: p.strat.Name}
		p.mu.Lock()
		pr.ID = p.id
		pr.Restarts = p.restarts
		pr.Flips = p.flips
		pr.Whitewashes = p.whitewashes
		nd := p.node
		p.mu.Unlock()
		var sum time.Duration
		for _, w := range p.wants {
			w.mu.Lock()
			pr.Wanted++
			pr.Attempts += w.attempts
			if w.done {
				pr.Completed++
				sum += w.elapsed
			} else if w.failed {
				pr.Failed++
			}
			w.mu.Unlock()
		}
		if pr.Completed > 0 {
			pr.MeanCompletion = sum / time.Duration(pr.Completed)
		}
		if nd != nil {
			pr.Stats = nd.Stats()
		}
		if p.strat.Corrupt {
			res.Cheaters++
		} else if s.cluster != nil && s.cluster.Flagged(pr.ID) > 0 {
			res.HonestFlagged++
		}
		res.Peers = append(res.Peers, pr)
		res.Wanted += pr.Wanted
		res.Completed += pr.Completed
		res.Failed += pr.Failed
		res.Restarts += pr.Restarts
		res.Flips += pr.Flips
		res.Whitewashes += pr.Whitewashes
	}
	return res
}
