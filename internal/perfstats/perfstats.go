// Package perfstats aggregates engine performance counters across
// simulation runs: events executed, ring-search traversal effort, and (via
// the runtime) allocation totals. Counters are process-global and atomic so
// the parallel experiment runner's workers can publish without coordination,
// and the engine publishes once per completed run — the hot path itself is
// never touched, so enabling the report cannot perturb deterministic output.
//
// cmd/exchsim surfaces a report through its -perf flag; the benchmark harness
// (bench/) reads the same numbers into the trajectory points (BENCH_*.json).
package perfstats

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

// Snapshot is one consistent view of the aggregated counters.
type Snapshot struct {
	// Runs counts completed simulation runs.
	Runs uint64
	// Events counts discrete events executed: Blocks block arrivals,
	// counted when credited rather than scheduled, and HeapEvents fired off
	// the event queue's heap. The two sum to Events.
	Events     uint64
	Blocks     uint64
	HeapEvents uint64
	// RingSearches counts ring searches; SearchNodesVisited and
	// SearchWantsChecked aggregate their traversal cost; the latter is
	// computed, not performed (see core.SearchStats.WantsChecked).
	RingSearches       uint64
	SearchNodesVisited uint64
	SearchWantsChecked uint64
	// RingsStarted counts rings that passed validation and started.
	RingsStarted uint64
	// MedRPCs counts mediator RPCs issued through the pipelined client;
	// MedRPCPeak is the peak number concurrently in flight (the achieved
	// pipeline depth). StripesGranted and StripesReassigned count mediated
	// download stripes assigned to origins and reassigned after a stall or
	// failed audit. MedReplicated counts the records (deposits, flags) the
	// mediator tier's shard-to-shard links sent to an object's other owner,
	// MedReplDropped those they could not: queue full, sibling unreachable,
	// or a send error. MedWALLost counts the records a shard's write-ahead
	// log failed to append, which a restart of that shard will not recover.
	// These seven are live-stack counters published as they happen rather
	// than folded in per run.
	MedRPCs           uint64
	MedRPCPeak        uint64
	StripesGranted    uint64
	StripesReassigned uint64
	MedReplicated     uint64
	MedReplDropped    uint64
	MedWALLost        uint64
}

var global struct {
	runs, events           atomic.Uint64
	searches, nodes, wants atomic.Uint64
	rings                  atomic.Uint64

	medRPCs, medInflight, medPeak atomic.Uint64
	stripesGranted, stripesReass  atomic.Uint64
	medReplicated, medReplDropped atomic.Uint64
	medWALLost                    atomic.Uint64

	blocks, heapEvents atomic.Uint64
}

// MedRPCStart records a mediator RPC entering flight, maintaining the peak
// concurrent depth; pair every call with MedRPCDone.
func MedRPCStart() {
	global.medRPCs.Add(1)
	depth := global.medInflight.Add(1)
	for {
		peak := global.medPeak.Load()
		if depth <= peak || global.medPeak.CompareAndSwap(peak, depth) {
			return
		}
	}
}

// MedRPCDone records a mediator RPC leaving flight.
func MedRPCDone() {
	global.medInflight.Add(^uint64(0))
}

// AddStripeGranted counts a mediated download stripe assigned to an origin.
func AddStripeGranted() { global.stripesGranted.Add(1) }

// AddStripeReassigned counts a stripe taken from a failed or departed origin
// and offered for reassignment.
func AddStripeReassigned() { global.stripesReass.Add(1) }

// AddMedReplicated counts a record a mediator shard sent to its sibling.
func AddMedReplicated() { global.medReplicated.Add(1) }

// AddMedReplDropped counts a record a mediator shard could not replicate.
func AddMedReplDropped() { global.medReplDropped.Add(1) }

// AddMedWALLost counts a record a mediator shard could not append to its
// write-ahead log.
func AddMedWALLost() { global.medWALLost.Add(1) }

// AddRun folds one run's counters into the global aggregate.
func AddRun(s Snapshot) {
	global.runs.Add(s.Runs)
	global.events.Add(s.Events)
	global.blocks.Add(s.Blocks)
	global.heapEvents.Add(s.HeapEvents)
	global.searches.Add(s.RingSearches)
	global.nodes.Add(s.SearchNodesVisited)
	global.wants.Add(s.SearchWantsChecked)
	global.rings.Add(s.RingsStarted)
}

// Current returns the aggregate since process start (or the last Reset).
func Current() Snapshot {
	return Snapshot{
		Runs:               global.runs.Load(),
		Events:             global.events.Load(),
		Blocks:             global.blocks.Load(),
		HeapEvents:         global.heapEvents.Load(),
		RingSearches:       global.searches.Load(),
		SearchNodesVisited: global.nodes.Load(),
		SearchWantsChecked: global.wants.Load(),
		RingsStarted:       global.rings.Load(),
		MedRPCs:            global.medRPCs.Load(),
		MedRPCPeak:         global.medPeak.Load(),
		StripesGranted:     global.stripesGranted.Load(),
		StripesReassigned:  global.stripesReass.Load(),
		MedReplicated:      global.medReplicated.Load(),
		MedReplDropped:     global.medReplDropped.Load(),
		MedWALLost:         global.medWALLost.Load(),
	}
}

// Sub returns s - t field-wise; use it to scope a Snapshot to an interval.
func (s Snapshot) Sub(t Snapshot) Snapshot {
	return Snapshot{
		Runs:               s.Runs - t.Runs,
		Events:             s.Events - t.Events,
		Blocks:             s.Blocks - t.Blocks,
		HeapEvents:         s.HeapEvents - t.HeapEvents,
		RingSearches:       s.RingSearches - t.RingSearches,
		SearchNodesVisited: s.SearchNodesVisited - t.SearchNodesVisited,
		SearchWantsChecked: s.SearchWantsChecked - t.SearchWantsChecked,
		RingsStarted:       s.RingsStarted - t.RingsStarted,
		MedRPCs:            s.MedRPCs - t.MedRPCs,
		MedRPCPeak:         s.MedRPCPeak, // a peak is not a delta; report the interval's high-water mark
		StripesGranted:     s.StripesGranted - t.StripesGranted,
		StripesReassigned:  s.StripesReassigned - t.StripesReassigned,
		MedReplicated:      s.MedReplicated - t.MedReplicated,
		MedReplDropped:     s.MedReplDropped - t.MedReplDropped,
		MedWALLost:         s.MedWALLost - t.MedWALLost,
	}
}

// Timer scopes a measurement interval: construct with StartTimer before the
// work, call Report after it.
type Timer struct {
	start   time.Time
	base    Snapshot
	memBase runtime.MemStats
}

// StartTimer snapshots the counters, the wall clock, and the allocator.
func StartTimer() *Timer {
	t := &Timer{start: time.Now(), base: Current()}
	runtime.ReadMemStats(&t.memBase)
	return t
}

// Report renders a human-readable digest of everything since StartTimer:
// throughput (events/sec of wall time), search effort, and allocation load.
func (t *Timer) Report() string {
	wall := time.Since(t.start).Seconds()
	s := Current().Sub(t.base)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	allocBytes := mem.TotalAlloc - t.memBase.TotalAlloc
	allocObjs := mem.Mallocs - t.memBase.Mallocs

	var b strings.Builder
	fmt.Fprintf(&b, "perf: %d run(s) in %.2fs wall\n", s.Runs, wall)
	fmt.Fprintf(&b, "perf: events     %d (%.0f events/s)\n", s.Events, rate(s.Events, wall))
	if s.Events > 0 {
		fmt.Fprintf(&b, "perf: eventq     %d heap events, %d blocks counted (%.1f%%)\n",
			s.HeapEvents, s.Blocks, 100*float64(s.Blocks)/float64(s.Events))
	}
	fmt.Fprintf(&b, "perf: searches   %d (%d nodes visited, %d want probes, %d rings started)\n",
		s.RingSearches, s.SearchNodesVisited, s.SearchWantsChecked, s.RingsStarted)
	if s.MedRPCs > 0 {
		fmt.Fprintf(&b, "perf: mediator   %d RPC(s), pipeline depth peak %d, %d record(s) replicated, %d dropped, %d lost from the WAL\n",
			s.MedRPCs, s.MedRPCPeak, s.MedReplicated, s.MedReplDropped, s.MedWALLost)
	}
	if s.StripesGranted > 0 {
		fmt.Fprintf(&b, "perf: stripes    %d granted, %d reassigned\n", s.StripesGranted, s.StripesReassigned)
	}
	fmt.Fprintf(&b, "perf: alloc      %d objects, %s", allocObjs, bytesHuman(allocBytes))
	if s.Events > 0 {
		fmt.Fprintf(&b, " (%.2f objects/event)", float64(allocObjs)/float64(s.Events))
	}
	b.WriteByte('\n')
	return b.String()
}

func rate(n uint64, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return float64(n) / secs
}

func bytesHuman(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}
