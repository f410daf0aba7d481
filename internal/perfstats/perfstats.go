// Package perfstats holds the four live-stack counters the benchmark harness
// (bench/) reads: mediator RPCs issued through the pipelined client, their
// peak pipeline depth, and the mediated download stripes granted and
// reassigned. They are process-global atomics, published as they happen, and
// bench/ scopes them to a slice with Sub. That is sound there only because
// every bench slice runs in a fresh process; two runs sharing a process would
// charge each other's counts. Every other counter lives on the instance that
// counts it: a simulator run's in sim.Result, a mediator shard's in
// mediator.Counts, a node's in node.Stats.
package perfstats

import "sync/atomic"

// Snapshot is one consistent view of the counters.
type Snapshot struct {
	// MedRPCs counts mediator RPCs issued through the pipelined client;
	// MedRPCPeak is the peak number concurrently in flight (the achieved
	// pipeline depth). StripesGranted and StripesReassigned count mediated
	// download stripes assigned to origins and reassigned after a stall or
	// failed audit.
	MedRPCs           uint64
	MedRPCPeak        uint64
	StripesGranted    uint64
	StripesReassigned uint64
}

var global struct {
	medRPCs, medInflight, medPeak atomic.Uint64
	stripesGranted, stripesReass  atomic.Uint64
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

// Current returns the counters since process start.
func Current() Snapshot {
	return Snapshot{
		MedRPCs:           global.medRPCs.Load(),
		MedRPCPeak:        global.medPeak.Load(),
		StripesGranted:    global.stripesGranted.Load(),
		StripesReassigned: global.stripesReass.Load(),
	}
}

// Sub returns s - t field-wise; use it to scope a Snapshot to an interval.
func (s Snapshot) Sub(t Snapshot) Snapshot {
	return Snapshot{
		MedRPCs: s.MedRPCs - t.MedRPCs,
		// A peak is not a delta: this is s's, the process's high-water mark
		// up to s, which is the interval's only when nothing before t rose
		// as high (a fresh process per bench slice).
		MedRPCPeak:        s.MedRPCPeak,
		StripesGranted:    s.StripesGranted - t.StripesGranted,
		StripesReassigned: s.StripesReassigned - t.StripesReassigned,
	}
}
