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
// Compact drops dead entries in bulk.
//
// A run need not be walked at all. Walking a run whose live entries'
// callbacks would only reschedule their payloads ends with those payloads
// one delay later, in order. MoveBefore names an instant before which every
// run is of that kind, and the queue moves such runs whole to the back of
// the lane: one block copy and one new run record, no callback. Dead entries
// move along until a walk or a Compact drops them. Within a walked run, the
// entries SetPass's filter accepts are carried over the same way, each
// stretch of them in one copy.
type Lane[T any] struct {
	q       *Queue
	fire    func(now float64, v T) bool
	pass    func(v T) bool
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
	fireHead(now float64) (live uint64)
	moveHead(n int)
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
	q.lane, q.laneDelay, q.moveBefore = l, delay, math.Inf(-1)
	return l, nil
}

// Schedule arms v to fire the lane's delay after the current clock, in the
// (at, seq) place Queue.After with that delay would give it, in O(1). It
// cannot fail: the delay was validated when the lane was created.
func (l *Lane[T]) Schedule(v T) {
	l.q.appendRun(l.q.clock+l.q.laneDelay, 1)
	l.q.laneLen++
	l.entries.push(v)
}

// SetPass installs the filter of walked runs: pass is asked about each
// entry of a walked run as its turn comes, with the clock at the run's
// instant, and an entry it accepts is carried one delay later instead of
// firing. It may not change the queue. A nil pass, the default, fires every
// entry.
func (l *Lane[T]) SetPass(pass func(v T) bool) { l.pass = pass }

// MoveBefore tells the queue that every run due before instant at is of the
// kind it may move whole (see Lane), until told otherwise. The default,
// -Inf, moves nothing.
func (l *Lane[T]) MoveBefore(at float64) { l.q.moveBefore = at }

// Len returns the number of entries not yet fired, dead ones included.
func (l *Lane[T]) Len() int { return l.q.laneLen }

// ForEach calls fn on every entry not yet fired, dead ones included, in
// firing order, until fn returns false.
func (l *Lane[T]) ForEach(fn func(v T) bool) {
	for i := 0; i < l.entries.n; i++ {
		if !fn(*l.entries.at(i)) {
			return
		}
	}
}

// PendingNow reports whether match holds for an entry due at the current
// instant that has not fired yet: the rest of a run being walked, and the
// runs at Now still queued behind a heap event. An entry a run carried past
// Now, walked or moved, counts as fired.
func (l *Lane[T]) PendingNow(match func(v T) bool) bool {
	q := l.q
	n := q.walkLeft
	for i := 0; i < q.runs.n && q.runs.at(i).at == q.clock; i++ {
		n += q.runs.at(i).n
	}
	for i := 0; i < n; i++ {
		if match(*l.entries.at(i)) {
			return true
		}
	}
	return false
}

// Compact drops every entry keep rejects, in place: the survivors keep
// their order and their runs, and a run left empty disappears. It may run
// from inside a callback, on the rest of the run being walked too.
func (l *Lane[T]) Compact(keep func(v T) bool) {
	q := l.q
	e := &l.entries
	r, w := 0, 0
	filter := func(n int) int {
		kept := 0
		for ; n > 0; n-- {
			v := *e.at(r)
			r++
			if keep(v) {
				*e.at(w) = v
				w++
				kept++
			}
		}
		return kept
	}
	q.walkLeft = filter(q.walkLeft)
	runs := &q.runs
	kept := 0
	for i := 0; i < runs.n; i++ {
		rn := *runs.at(i)
		if rn.n = filter(rn.n); rn.n > 0 {
			*runs.at(kept) = rn
			kept++
		} else if i == runs.n-1 {
			q.open = false // the tail run is gone; the next append opens a new one
		}
	}
	runs.truncate(kept)
	e.truncate(w)
	q.laneLen = w
}

// fireHead pops the entries of the run being walked and fires each, or
// carries over the stretches pass accepts. The count left is the queue's
// walkLeft, not a local: a callback may Compact. A passed stretch is moved
// before the next callback runs, so callbacks see the lane in order.
func (l *Lane[T]) fireHead(now float64) (live uint64) {
	q := l.q
	passed := 0 // entries at the front passed over and not yet carried
	for q.walkLeft > 0 {
		if l.pass != nil && l.pass(*l.entries.at(passed)) {
			passed++
			q.walkLeft--
			continue
		}
		if passed > 0 {
			l.carry(now, passed)
			passed = 0
		}
		q.walkLeft--
		v := l.entries.pop()
		q.laneLen--
		if l.fire(now, v) {
			q.fired++
			live++
		}
	}
	if passed > 0 {
		l.carry(now, passed)
	}
	return live
}

// carry moves the first n entries, passed over at now, one delay later to
// the back.
func (l *Lane[T]) carry(now float64, n int) {
	q := l.q
	q.appendRun(now+q.laneDelay, n)
	l.entries.rotate(n)
}

// moveHead carries the first n entries to the back of the lane, in order.
func (l *Lane[T]) moveHead(n int) { l.entries.rotate(n) }

// appendRun files n entries due at at behind the lane's tail: into the tail
// run if it is still open at that instant, else as a new run with the next
// sequence number. Schedule appends one entry; a moved run all of its own.
// The entries themselves are the caller's to place. It reports whether
// they joined the tail run.
func (q *Queue) appendRun(at float64, n int) (joined bool) {
	if q.open && q.runs.back().at == at {
		q.runs.back().n += n
		return true
	}
	q.nextSeq++
	q.runs.push(run{at: at, seq: q.nextSeq, n: n})
	q.open = true
	return false
}

// fireRun takes the head run off the queue and walks it: its entries fire
// at the run's instant, or are carried over (SetPass). The run is detached
// first, so entries its callbacks schedule — even at this very instant, with
// a zero delay — start a run of their own behind it. A run whose entries
// were all dead or carried over leaves the clock where it was, as a
// heap-only queue skipping cancelled events would. It reports whether any
// entry fired.
func (q *Queue) fireRun() bool {
	r := q.runs.pop()
	if q.runs.n == 0 {
		q.open = false
	}
	prev := q.clock
	q.clock = r.at
	q.walkLeft = r.n
	live := q.lane.fireHead(r.at)
	if live == 0 {
		q.clock = prev
		return false
	}
	q.laneFired += live
	q.runsFired++
	return true
}

// moveRuns moves head runs whole, one after the other, while they are due
// before moveBefore, by horizon, and before the heap's live root it (nil for
// none): no callback, no clock change and no entry copy per run. Each lap
// files the runs that were queued when it began one delay later at the back,
// then moves all of their entries in one copy; a run refiled in this lap
// comes up again only in the next. Entries that join the tail run while the
// lap has still to move it are moved at once, behind it.
func (q *Queue) moveRuns(horizon float64, it *item) {
	for {
		entries, lastSeq := 0, q.nextSeq
		for lap := q.runs.n; lap > 0; lap-- {
			r := q.runs.front()
			if r.at >= q.moveBefore || r.at > horizon || it != nil && (it.at < r.at || it.at == r.at && it.seq < r.seq) {
				q.lane.moveHead(entries)
				return
			}
			rn := q.runs.pop()
			if q.runs.n == 0 {
				q.open = false
			}
			q.runsMoved++
			entries += rn.n
			if q.appendRun(rn.at+q.laneDelay, rn.n) && q.runs.back().seq <= lastSeq {
				q.lane.moveHead(entries)
				entries = 0
			}
		}
		q.lane.moveHead(entries)
	}
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

func (r *ring[E]) front() *E { return r.at(0) }

func (r *ring[E]) back() *E { return r.at(r.n - 1) }

// at returns the i-th element from the head.
func (r *ring[E]) at(i int) *E { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// truncate keeps the first n elements, clearing the slots it frees.
func (r *ring[E]) truncate(n int) {
	var zero E
	for i := n; i < r.n; i++ {
		*r.at(i) = zero
	}
	r.n = n
}

// rotate moves the first k elements to the back, in order, one copy per
// contiguous stretch. The slots it leaves keep stale copies of elements
// that are still in the ring, so there is nothing to clear: with the buffer
// not full, a destination that wraps onto the head stretch lands only on
// elements already copied out.
func (r *ring[E]) rotate(k int) {
	size := len(r.buf)
	if r.n < size {
		src, dst := r.head, (r.head+r.n)&(size-1)
		for k > 0 {
			c := min(k, size-src, size-dst)
			copy(r.buf[dst:dst+c], r.buf[src:src+c])
			src, dst, k = (src+c)&(size-1), (dst+c)&(size-1), k-c
		}
		r.head = src
		return
	}
	r.head = (r.head + k) & (size - 1)
}

// grow doubles the buffer, unrolling it so the head lands on index zero.
func (r *ring[E]) grow() {
	buf := make([]E, max(64, 2*len(r.buf)))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
