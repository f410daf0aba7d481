package eventq

import (
	"errors"
	"fmt"
	"math"
)

// Lane is the queue's O(1) path for events that are all scheduled at one
// constant delay, carrying a payload of type T to one callback instead of an
// Event each.
//
// The clock never runs backwards and floating-point addition is monotone, so
// clock+delay is non-decreasing from one Schedule call to the next: a FIFO
// of the entries is already in time order, and no sift is ever needed.
// Entries scheduled at one instant form a run that takes one sequence
// number. The queue fires a whole run after one comparison against the heap,
// calling the callback once per entry with no item, handle or interface
// dispatch, which a simulation whose same-delay events land many to an
// instant saves on every one but the first.
//
// A run is exactly the tie order a heap-only queue would give its entries.
// Events scheduled while a run fires come after it (their sequence numbers
// are larger), and so do events due at the run's instant that were
// scheduled after it opened: Queue.At closes the open run when an event is
// scheduled for its instant, so entries appended afterwards start a new run
// behind that event. Scheduling through the lane is therefore an
// optimization, never a semantic choice: the differential tests hold the
// lane to a heap-only queue.
//
// A lane entry cannot be cancelled. The payload carries its own liveness
// (say, a generation stamp), and the callback reports whether the entry was
// live: a dead one must have done nothing. Only live entries count in Fired.
type Lane[T any] struct {
	q       *Queue
	fire    func(now float64, v T) bool
	entries ring[T]
}

// run is a stretch of lane entries appended at one instant, fired together.
type run struct {
	at  float64
	seq uint64
	n   int
}

// runFirer is the queue's view of its typed lane: one call per run.
type runFirer interface {
	fireHead(now float64, n int) (live uint64)
}

// NewLane creates q's fixed-delay lane, whose entries fire delay after they
// are scheduled, each by a call of fire. A queue has at most one lane (a
// second constant delay would need a second FIFO and a three-way merge;
// nothing needs it), and the delay must be a non-negative number.
func NewLane[T any](q *Queue, delay float64, fire func(now float64, v T) bool) (*Lane[T], error) {
	if q.lane != nil {
		return nil, errors.New("eventq: queue already has a lane")
	}
	if math.IsNaN(delay) || delay < 0 {
		return nil, fmt.Errorf("%w: lane delay %v", ErrPast, delay)
	}
	l := &Lane[T]{q: q, fire: fire}
	q.lane, q.laneDelay = l, delay
	return l, nil
}

// Schedule arms v to fire the lane's delay after the current clock, in the
// (at, seq) place Queue.After with that delay would give it, in O(1). It
// cannot fail: the delay was validated when the lane was created.
func (l *Lane[T]) Schedule(v T) {
	q := l.q
	at := q.clock + q.laneDelay
	if q.open && q.runs.back().at == at {
		q.runs.back().n++
	} else {
		q.nextSeq++
		q.runs.push(run{at: at, seq: q.nextSeq, n: 1})
		q.open = true
	}
	q.laneLen++
	l.entries.push(v)
}

// ForEach calls fn on every entry not yet fired, dead ones included, in
// firing order, until fn returns false.
func (l *Lane[T]) ForEach(fn func(v T) bool) {
	r := &l.entries
	for i := 0; i < r.n; i++ {
		if !fn(r.buf[(r.head+i)&(len(r.buf)-1)]) {
			return
		}
	}
}

// fireHead pops the n entries of the head run and fires each.
func (l *Lane[T]) fireHead(now float64, n int) (live uint64) {
	q := l.q
	for ; n > 0; n-- {
		v := l.entries.pop()
		q.laneLen--
		if l.fire(now, v) {
			q.fired++
			live++
		}
	}
	return live
}

// fireRun takes the head run off the queue and fires its entries at the
// run's instant. The run is detached first, so entries its callbacks
// schedule — even at this very instant, with a zero delay — start a run of
// their own behind it. A run whose entries were all dead leaves the clock
// where it was, as a heap-only queue skipping cancelled events would. It
// reports whether any entry fired.
func (q *Queue) fireRun() bool {
	r := q.runs.pop()
	if q.runs.n == 0 {
		q.open = false
	}
	prev := q.clock
	q.clock = r.at
	live := q.lane.fireHead(r.at, r.n)
	if live == 0 {
		q.clock = prev
		return false
	}
	q.laneFired += live
	q.runsFired++
	return true
}

// ring is a FIFO over a power-of-two circular buffer.
type ring[E any] struct {
	buf  []E
	head int
	n    int
}

func (r *ring[E]) push(v E) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

func (r *ring[E]) pop() E {
	var zero E
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

func (r *ring[E]) front() *E { return &r.buf[r.head] }

func (r *ring[E]) back() *E { return &r.buf[(r.head+r.n-1)&(len(r.buf)-1)] }

// grow doubles the buffer, unrolling it so the head lands on index zero.
func (r *ring[E]) grow() {
	buf := make([]E, max(64, 2*len(r.buf)))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
