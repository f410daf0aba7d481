package eventq

import (
	"math/rand"
	"slices"
	"testing"
)

// laneDelay is the constant delay of the differential tests. The arbitrary
// delays below are multiples of a quarter of it, so heap events regularly
// land on exactly the instants lane events occupy and the (at, seq)
// tie-break between the two structures is exercised, not just the order.
const laneDelay = 5.0

type firing struct {
	at float64
	id int
}

// entry is one fixed-delay event. On the lane it is the payload itself and
// carries its own liveness; on the heap-only queue it rides in a closure.
type entry struct {
	id, chain       int
	cancelled, done bool
}

// ref is what the script can later cancel: a heap handle, or a lane entry.
type ref struct {
	h Handle
	e *entry
}

// harness drives one queue through a script. With a lane, fixed-delay
// schedules take it; without, they go through After like any other event —
// the heap-only queue is the reference the lane must be indistinguishable
// from.
type harness struct {
	q     *Queue
	lane  *Lane[*entry]
	fired []firing
	refs  []ref
	next  int
	dead  int // cancelled lane entries still queued
}

func newHarness(t testing.TB, withLane bool) *harness {
	h := &harness{q: New()}
	if withLane {
		lane, err := NewLane(h.q, laneDelay, h.fireEntry)
		if err != nil {
			t.Fatal(err)
		}
		h.lane = lane
	}
	return h
}

// fireEntry logs e's firing and, while its chain lasts, schedules a
// fixed-delay successor from inside the firing.
func (h *harness) fireEntry(now float64, e *entry) bool {
	if e.cancelled {
		h.dead--
		return false
	}
	e.done = true
	h.fired = append(h.fired, firing{at: now, id: e.id})
	if e.chain > 0 {
		h.fixed(e.chain - 1)
	}
	return true
}

func (h *harness) fixed(chain int) {
	e := &entry{id: h.next, chain: chain}
	h.next++
	if h.lane != nil {
		h.lane.Schedule(e)
		h.refs = append(h.refs, ref{e: e})
		return
	}
	hd, err := h.q.After(laneDelay, Func(func(now float64) { h.fireEntry(now, e) }))
	if err != nil {
		panic(err)
	}
	h.refs = append(h.refs, ref{h: hd})
}

func (h *harness) arbitrary(delay float64) {
	id := h.next
	h.next++
	hd, err := h.q.After(delay, Func(func(now float64) {
		h.fired = append(h.fired, firing{at: now, id: id})
	}))
	if err != nil {
		panic(err)
	}
	h.refs = append(h.refs, ref{h: hd})
}

// cancel cancels r the way its queue allows and reports whether it was
// still pending.
func (h *harness) cancel(r ref) bool {
	if r.e == nil {
		return h.q.Cancel(r.h)
	}
	if r.e.cancelled || r.e.done {
		return false
	}
	r.e.cancelled = true
	h.dead++
	return true
}

// step interprets one scripted operation other than Step; arg
// parameterizes it.
func (h *harness) step(op, arg byte) (cancelled bool) {
	switch op % 6 {
	case 0:
		h.fixed(0)
	case 1:
		h.fixed(int(arg % 4))
	case 2:
		h.arbitrary(float64(arg%16) * laneDelay / 4) // 0 is a same-instant tie, 4 the lane's instant
	case 3:
		if len(h.refs) > 0 { // live, stale, and already-cancelled references alike
			cancelled = h.cancel(h.refs[int(arg)%len(h.refs)])
		}
	case 5:
		h.q.RunUntil(h.q.Now() + float64(arg%8)*laneDelay/2)
	}
	return cancelled
}

// runDifferential feeds one script to a lane-enabled and a heap-only queue
// and fails on the first observable difference. A Step of the lane queue
// fires a whole run, so the heap-only queue steps until it has fired as
// many events.
func runDifferential(t testing.TB, script []byte) {
	a, b := newHarness(t, true), newHarness(t, false)
	compared := 0 // prefix of the fired logs already found equal
	check := func(i int) {
		t.Helper()
		if a.q.Len()-a.dead != b.q.Len() || a.q.Fired() != b.q.Fired() || a.q.Now() != b.q.Now() {
			t.Fatalf("op %d: lane queue live/fired/now = %d/%d/%v, heap queue %d/%d/%v",
				i, a.q.Len()-a.dead, a.q.Fired(), a.q.Now(), b.q.Len(), b.q.Fired(), b.q.Now())
		}
		if !slices.Equal(a.fired[compared:], b.fired[compared:]) {
			t.Fatalf("op %d: fired sequences diverged:\n lane %v\n heap %v", i, a.fired[compared:], b.fired[compared:])
		}
		compared = len(a.fired)
	}
	for i := 0; i+1 < len(script); i += 2 {
		if script[i]%6 == 4 {
			a.q.Step()
			for b.q.Fired() < a.q.Fired() && b.q.Step() {
			}
		} else if aC, bC := a.step(script[i], script[i+1]), b.step(script[i], script[i+1]); aC != bC {
			t.Fatalf("op %d: lane queue cancel answered %v, heap queue %v", i/2, aC, bC)
		}
		check(i / 2)
	}
	a.q.RunUntil(a.q.Now() + 1e6)
	b.q.RunUntil(b.q.Now() + 1e6)
	check(len(script) / 2)
	if a.q.Len() != 0 || a.dead != 0 {
		t.Fatalf("drained lane queue still reports %d pending, %d dead", a.q.Len(), a.dead)
	}
	if b.q.LaneFired() != 0 || b.q.LaneRuns() != 0 {
		t.Fatalf("heap-only queue counted %d lane events in %d runs", b.q.LaneFired(), b.q.LaneRuns())
	}
	if a.q.LaneRuns() > a.q.LaneFired() {
		t.Fatalf("%d lane runs fired only %d lane events", a.q.LaneRuns(), a.q.LaneFired())
	}
	for i := 1; i < len(a.fired); i++ {
		if a.fired[i].at < a.fired[i-1].at {
			t.Fatalf("fire order regressed at %d: %v after %v", i, a.fired[i], a.fired[i-1])
		}
	}
}

// TestLaneMatchesHeapOnly is the seeded property test: random interleavings
// of fixed-delay and arbitrary-delay schedules (ties included, heap events
// on a lane run's instant too), events that schedule from inside their
// firing, cancels of live, stale and already-cancelled events, Step and
// RunUntil horizons must be indistinguishable between a queue with a lane
// and one without.
func TestLaneMatchesHeapOnly(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		script := make([]byte, 8000)
		r.Read(script)
		runDifferential(t, script)
	}
	// A schedule-heavy script grows the ring buffer several times while its
	// head is mid-buffer.
	var script []byte
	for i := 0; i < 3000; i++ {
		script = append(script, 0, 0, 1, 3, 2, byte(i))
		if i%3 == 0 {
			script = append(script, 4, 0)
		}
	}
	runDifferential(t, script)
}

func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 0, 2, 4, 4, 0, 4, 0})             // lane and heap tie at the same instant
	f.Add([]byte{0, 0, 3, 0, 3, 0, 5, 7, 0, 0, 3, 0}) // cancel, double cancel, cancel after the run fired
	f.Add([]byte{1, 3, 2, 0, 5, 2, 5, 7})             // chains, same-instant event, horizons
	f.Fuzz(func(t *testing.T, script []byte) {
		runDifferential(t, script)
	})
}

// TestRunFiresAsOne: entries scheduled at one instant fire as one run, in
// schedule order, from a single Step.
func TestRunFiresAsOne(t *testing.T) {
	q := New()
	var got []int
	lane, err := NewLane(q, laneDelay, func(now float64, v int) bool {
		if now != laneDelay {
			t.Errorf("entry %d fired at %v, want %v", v, now, laneDelay)
		}
		got = append(got, v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		lane.Schedule(i)
	}
	if !q.Step() || len(got) != 100 || q.Len() != 0 {
		t.Fatalf("one Step fired %d of 100 entries, %d left", len(got), q.Len())
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("run order %v", got)
		}
	}
	if q.Fired() != 100 || q.LaneFired() != 100 || q.LaneRuns() != 1 {
		t.Fatalf("Fired/LaneFired/LaneRuns = %d/%d/%d, want 100/100/1", q.Fired(), q.LaneFired(), q.LaneRuns())
	}
}

// TestHeapEventClosesOpenRun: a heap event scheduled for the instant of the
// run still being appended to fires after the entries already in it and
// before the ones appended after it, exactly as their sequence numbers say.
func TestHeapEventClosesOpenRun(t *testing.T) {
	q := New()
	var got []string
	lane, err := NewLane(q, laneDelay, func(_ float64, v string) bool {
		got = append(got, v)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	lane.Schedule("a")
	lane.Schedule("b")
	if _, err := q.After(laneDelay, Func(func(float64) { got = append(got, "heap") })); err != nil {
		t.Fatal(err)
	}
	lane.Schedule("c")
	q.RunUntil(laneDelay)
	if want := []string{"a", "b", "heap", "c"}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if q.LaneRuns() != 2 {
		t.Fatalf("LaneRuns = %d, want 2: the heap event splits the instant", q.LaneRuns())
	}
}

// TestDeadRunLeavesClock: a run whose entries are all dead fires nothing,
// counts nothing and does not move the clock; Step goes on to the next
// event.
func TestDeadRunLeavesClock(t *testing.T) {
	q := New()
	lane, err := NewLane(q, laneDelay, func(float64, bool) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	lane.Schedule(false)
	fired := false
	if _, err := q.After(2*laneDelay, Func(func(now float64) { fired = now == 2*laneDelay })); err != nil {
		t.Fatal(err)
	}
	if !q.Step() || !fired || q.Fired() != 1 || q.LaneRuns() != 0 {
		t.Fatalf("Step: fired=%v Fired=%d LaneRuns=%d, want the heap event alone", fired, q.Fired(), q.LaneRuns())
	}
	lane.Schedule(false)
	if q.Step() || q.Now() != 2*laneDelay || q.Len() != 0 {
		t.Fatalf("Step over a dead run: now %v, len %d", q.Now(), q.Len())
	}
}

func TestNewLaneValidates(t *testing.T) {
	q := New()
	fire := func(float64, int) bool { return true }
	if _, err := NewLane(q, -1, fire); err == nil {
		t.Error("negative lane delay accepted")
	}
	if _, err := NewLane(q, laneDelay, fire); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLane(q, laneDelay, fire); err == nil {
		t.Error("second lane accepted")
	}
}

// BenchmarkLaneScheduleAndFire is BenchmarkScheduleAndFire's lane
// counterpart at the same steady depth, one entry per run.
func BenchmarkLaneScheduleAndFire(b *testing.B) {
	q := New()
	lane, err := NewLane(q, 1, func(float64, int) bool { return true })
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lane.Schedule(i)
		if i%4 == 3 {
			q.Step()
		}
	}
}
