// Package eventq implements the future event list of a discrete-event
// simulation: one 4-ary min-heap of timestamped events and a virtual clock.
//
// Determinism is a design requirement for the reproduction study: two runs
// with the same seed must execute the same event sequence. Events scheduled
// for the same instant are therefore ordered by a monotonically increasing
// sequence number, so the (timestamp, sequence) order is a strict total
// order and heap ordering never depends on map iteration or pointer values.
//
// The queue sits on the simulator's hot path, so it is built to stay off the
// garbage collector's books: heap items are recycled through an internal free
// list, cancellation is lazy (an item is marked and skipped when popped), and
// a Handle carries the item pointer plus its scheduling sequence so Cancel
// needs no lookup map. The 4-ary layout halves sift-down depth relative to a
// binary heap, which is where a pop-heavy workload spends its time.
//
// A simulation that keeps work of its own beside the queue (say, completions
// whose instants it computes) merges the two by reading Next and moving the
// clock with AdvanceTo before doing that work.
//
// Instants are float64, in whatever unit the caller keeps. Both of the
// program's callers speak whole nanoseconds: the simulator (internal/sim)
// keeps its clock as a time.Duration and converts at this edge, and the
// swarm's fault driver (internal/swarm) schedules float64(time.Duration).
// float64 holds every whole number below 2^53 exactly, so sums and ties of
// such instants are exact up to 2^53 ns, about 104 days; the simulator's
// Config.Validate refuses a horizon past that.
package eventq

import (
	"errors"
	"fmt"
	"math"
)

// Event is a unit of scheduled work. Fire is invoked by Queue.Run when the
// virtual clock reaches the event's timestamp.
type Event interface {
	// Fire executes the event at virtual time now.
	Fire(now float64)
}

// Func adapts a plain function to the Event interface.
type Func func(now float64)

// Fire implements Event.
func (f Func) Fire(now float64) { f(now) }

var _ Event = Func(nil)

// ErrPast is returned when an event is scheduled before the current clock.
var ErrPast = errors.New("eventq: schedule in the past")

// Handle identifies a scheduled event so it can be cancelled. The zero Handle
// is invalid. A Handle is only meaningful against the Queue that issued it.
type Handle struct {
	it *item
	// seq is the scheduling instance the handle refers to. Items are
	// recycled, but sequence numbers never are: a stale handle to a fired or
	// cancelled event holds a sequence its item no longer carries, so Cancel
	// recognizes it as dead instead of corrupting the item's next life.
	seq uint64
}

// Valid reports whether h refers to an event that was actually scheduled.
func (h Handle) Valid() bool { return h.it != nil }

type item struct {
	at        float64
	seq       uint64 // 0 while the item rests on the free list
	ev        Event
	cancelled bool
}

// Queue is a future event list with a virtual clock. The zero value is not
// usable; call New.
//
// Queue is not safe for concurrent use: discrete-event simulation is
// inherently sequential, and single-threaded execution is what guarantees
// reproducibility.
type Queue struct {
	heap    []*item
	free    []*item
	clock   float64
	nextSeq uint64
	fired   uint64
}

// New returns an empty queue with the clock at zero.
func New() *Queue {
	return &Queue{}
}

// Now returns the current virtual time.
func (q *Queue) Now() float64 { return q.clock }

// Fired returns the total number of events executed so far.
func (q *Queue) Fired() uint64 { return q.fired }

// Next returns the instant of the earliest pending event, or +Inf when none
// is pending.
func (q *Queue) Next() float64 {
	if it := q.root(); it != nil {
		return it.at
	}
	return math.Inf(1)
}

// AdvanceTo moves the clock forward to t; an earlier t leaves it where it
// is. Moving it past Next would let that event fire in the past, so the
// caller keeps t at or before Next.
func (q *Queue) AdvanceTo(t float64) {
	if t > q.clock {
		q.clock = t
	}
}

// At schedules ev to fire at absolute virtual time at. It returns a Handle
// that can be passed to Cancel. Scheduling at the current instant is allowed;
// scheduling in the past returns ErrPast.
func (q *Queue) At(at float64, ev Event) (Handle, error) {
	if at < q.clock {
		return Handle{}, fmt.Errorf("%w: at=%v now=%v", ErrPast, at, q.clock)
	}
	it := q.newItem(at, ev)
	q.push(it)
	return Handle{it: it, seq: it.seq}, nil
}

// newItem takes an item off the free list (or allocates one), stamps it with
// the next sequence number.
func (q *Queue) newItem(at float64, ev Event) *item {
	q.nextSeq++
	var it *item
	if n := len(q.free); n > 0 {
		it = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		it = &item{}
	}
	it.at, it.seq, it.ev, it.cancelled = at, q.nextSeq, ev, false
	return it
}

// After schedules ev to fire delay time units after the current clock.
// Negative delays are rejected with ErrPast.
func (q *Queue) After(delay float64, ev Event) (Handle, error) {
	return q.At(q.clock+delay, ev)
}

// Cancel removes a pending event. It reports whether the event was still
// pending (false if it already fired, was already cancelled, or the handle is
// invalid). Cancellation is lazy — O(1) — and safe against stale handles: a
// handle to an event that fired keeps a sequence number its (recycled) item
// will never carry again.
func (q *Queue) Cancel(h Handle) bool {
	it := h.it
	if it == nil || it.seq != h.seq || it.cancelled {
		return false
	}
	it.cancelled = true
	return true
}

// recycle returns a popped item to the free list. Clearing seq makes every
// outstanding handle to the item's previous life fail Cancel's sequence
// check, and dropping ev releases the event for collection.
func (q *Queue) recycle(it *item) {
	it.ev = nil
	it.seq = 0
	it.cancelled = false
	q.free = append(q.free, it)
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was fired (false when the queue is
// empty).
func (q *Queue) Step() bool {
	it := q.root()
	if it == nil {
		return false
	}
	q.pop()
	at, ev := it.at, it.ev
	// Recycled before Fire runs: the event may freely schedule new work, and
	// any handle to the fired event is already dead.
	q.recycle(it)
	q.clock = at
	q.fired++
	ev.Fire(at)
	return true
}

// root returns the live heap root, discarding lazily cancelled items on the
// way, or nil when the heap holds no live event.
func (q *Queue) root() *item {
	for len(q.heap) > 0 {
		it := q.heap[0]
		if !it.cancelled {
			return it
		}
		q.pop()
		q.recycle(it)
	}
	return nil
}

// less orders items by timestamp, breaking ties by schedule order so that the
// event sequence is fully deterministic. Because seq is unique the order is
// strict, and any heap shape pops the same sequence of events.
func less(a, b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The heap is 4-ary: children of i are 4i+1 .. 4i+4. Sift operations move a
// hole instead of swapping, halving the writes of the classic exchange loop.

func (q *Queue) push(it *item) {
	q.heap = append(q.heap, it)
	i := len(q.heap) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !less(it, q.heap[parent]) {
			break
		}
		q.heap[i] = q.heap[parent]
		i = parent
	}
	q.heap[i] = it
}

func (q *Queue) pop() *item {
	n := len(q.heap)
	it := q.heap[0]
	last := q.heap[n-1]
	q.heap[n-1] = nil
	q.heap = q.heap[:n-1]
	if n > 1 {
		q.down(last)
	}
	return it
}

// down sifts it from the root to its position, moving the hole ahead of it.
func (q *Queue) down(it *item) {
	n := len(q.heap)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		smallest := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(q.heap[c], q.heap[smallest]) {
				smallest = c
			}
		}
		if !less(q.heap[smallest], it) {
			break
		}
		q.heap[i] = q.heap[smallest]
		i = smallest
	}
	q.heap[i] = it
}
