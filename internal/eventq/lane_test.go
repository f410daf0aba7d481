package eventq

import (
	"fmt"
	"math"
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
// carries its own liveness; on the heap-only queue it rides in a closure,
// and h is its pending event.
type entry struct {
	id, chain       int
	cancelled, done bool
	h               Handle
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
//
// The harness keeps moveBefore itself, and an entry due before it is
// re-armed one delay later without firing: the lane moves its run whole
// (MoveBefore), and the heap-only queue fires the entry's event, which
// re-arms it silently. After every scripted operation (plan), outside
// walkAll and outside the windows of instants k·laneDelay/4 with k mod 12
// below 4, moveBefore is the start of the next window: up to two delays
// ahead, so one batch can move a run onto the instant of another it moves
// later. Only scripted operations change moveBefore, so a run the lane has
// begun to walk is walked by the heap-only queue too. Within a walked run,
// outside walkAll, an entry is passed over on every other lap by the parity
// of its id (pass): the lane carries it, the heap-only queue re-arms it. A
// Step of the lane walks a whole run, passing over entries after the last
// one it fires, so the heap-only queue steps on until it has passed over as
// many live entries too (passes).
type harness struct {
	q          *Queue
	lane       *Lane[*entry]
	fired      []firing
	refs       []ref
	next       int
	dead       int // cancelled lane entries still queued
	walkAll    bool
	passes     int // live entries passed over in walked runs
	moveBefore float64
}

func newHarness(t testing.TB, withLane bool) *harness {
	h := &harness{q: New(), walkAll: true, moveBefore: math.Inf(-1)}
	if withLane {
		lane, err := NewLane(h.q, laneDelay, h.fireEntry)
		if err != nil {
			t.Fatal(err)
		}
		lane.SetPass(h.pass)
		h.lane = lane
	}
	return h
}

// pass reports whether e, due now in a walked run, is passed over.
func (h *harness) pass(e *entry) bool {
	p := !h.walkAll && (e.id+int(h.q.Now()/laneDelay))%2 == 0
	if p && !e.cancelled {
		h.passes++
	}
	return p
}

// plan sets moveBefore after a scripted operation: nothing moves under
// walkAll or inside a window, and otherwise every run before the next
// window does.
func (h *harness) plan() {
	h.moveBefore = math.Inf(-1)
	if k := int(h.q.Now() * 4 / laneDelay); !h.walkAll && k%12 >= 4 {
		h.moveBefore = float64(k+12-k%12) * laneDelay / 4
	}
	if h.lane != nil {
		h.lane.MoveBefore(h.moveBefore)
	}
}

// fireEntry logs e's firing and, while its chain lasts, schedules a
// fixed-delay successor from inside the firing. Every fifth entry compacts
// the lane from inside its firing, so the rest of the run being walked is
// compacted too.
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
	if e.id%5 == 0 {
		h.compact()
	}
	return true
}

func (h *harness) fixed(chain int) {
	e := &entry{id: h.next, chain: chain}
	h.next++
	h.refs = append(h.refs, ref{e: e})
	if h.lane != nil {
		h.lane.Schedule(e)
		return
	}
	h.arm(e)
}

// arm schedules e's event on the heap-only queue: fired at an instant the
// lane walks, unless passed over; moved and passed over, re-armed.
func (h *harness) arm(e *entry) {
	hd, err := h.q.After(laneDelay, Func(func(now float64) {
		if now >= h.moveBefore && !h.pass(e) {
			h.fireEntry(now, e)
		} else {
			h.arm(e)
		}
	}))
	if err != nil {
		panic(err)
	}
	e.h = hd
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
	if h.lane == nil {
		return h.q.Cancel(r.e.h)
	}
	h.dead++
	return true
}

// compact drops the lane's cancelled entries; the heap-only queue has none.
func (h *harness) compact() {
	if h.lane != nil {
		h.lane.Compact(func(e *entry) bool { return !e.cancelled })
		h.dead = 0
	}
}

// step interprets one scripted operation other than Step; arg
// parameterizes it. The caller plans moveBefore after it.
func (h *harness) step(op, arg byte) (cancelled bool) {
	switch op % 8 {
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
	case 6:
		h.walkAll = !h.walkAll
	case 7:
		h.compact()
	}
	return cancelled
}

// runDifferential feeds one script to a lane-enabled and a heap-only queue
// and fails on the first observable difference. A Step of the lane queue
// fires a whole run, so the heap-only queue steps until it has logged as
// many firings; its passed-over entries fire unlogged.
func runDifferential(t testing.TB, script []byte) {
	a, b := newHarness(t, true), newHarness(t, false)
	compared := 0 // prefix of the fired logs already found equal
	check := func(i int) {
		t.Helper()
		if a.q.Len()-a.dead != b.q.Len() || a.q.Now() != b.q.Now() || a.q.Fired() != uint64(len(a.fired)) {
			t.Fatalf("op %d: lane queue live/now = %d/%v (fired %d, logged %d), heap queue %d/%v",
				i, a.q.Len()-a.dead, a.q.Now(), a.q.Fired(), len(a.fired), b.q.Len(), b.q.Now())
		}
		if !slices.Equal(a.fired[compared:], b.fired[compared:]) {
			t.Fatalf("op %d: fired sequences diverged:\n lane %v\n heap %v", i, a.fired[compared:], b.fired[compared:])
		}
		compared = len(a.fired)
	}
	for i := 0; i+1 < len(script); i += 2 {
		if script[i]%8 == 4 {
			a.q.Step()
			for (len(b.fired) < len(a.fired) || b.passes < a.passes) && b.q.Step() {
			}
		} else if aC, bC := a.step(script[i], script[i+1]), b.step(script[i], script[i+1]); aC != bC {
			t.Fatalf("op %d: lane queue cancel answered %v, heap queue %v", i/2, aC, bC)
		}
		check(i / 2)
		a.plan()
		b.plan()
	}
	a.q.RunUntil(a.q.Now() + 1e6)
	b.q.RunUntil(b.q.Now() + 1e6)
	check(len(script) / 2)
	if a.q.Len() != 0 || a.dead != 0 {
		t.Fatalf("drained lane queue still reports %d pending, %d dead", a.q.Len(), a.dead)
	}
	if b.q.LaneFired() != 0 || b.q.LaneRuns() != 0 || b.q.LaneMoved() != 0 {
		t.Fatalf("heap-only queue counted %d lane events in %d runs, %d moved", b.q.LaneFired(), b.q.LaneRuns(), b.q.LaneMoved())
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
// firing, cancels of live, stale and already-cancelled events, runs walked
// and runs moved whole, compactions between and inside firings, Step and
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
	f.Add([]byte{0, 0, 2, 4, 4, 0, 4, 0})                   // lane and heap tie at the same instant
	f.Add([]byte{0, 0, 3, 0, 3, 0, 5, 7, 0, 0, 3, 0})       // cancel, double cancel, cancel after the run fired
	f.Add([]byte{1, 3, 2, 0, 5, 2, 5, 7})                   // chains, same-instant event, horizons
	f.Add([]byte{6, 0, 1, 3, 0, 0, 3, 1, 7, 0, 5, 7})       // moved runs carrying a cancelled entry, compacted
	f.Add([]byte{0, 0, 2, 4, 0, 0, 3, 2, 7, 0, 0, 0, 5, 7}) // compaction empties the open run behind a heap event, then an append
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

// TestMoveBeforeStopsAtHorizon: a batch of runs moved unasked stops at the
// horizon like any other event, so a run due after it keeps its instant.
func TestMoveBeforeStopsAtHorizon(t *testing.T) {
	q := New()
	var got []firing
	lane, err := NewLane(q, 10, func(now float64, id int) bool {
		got = append(got, firing{at: now, id: id})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	lane.MoveBefore(15)
	for id := 0; id < 3; id++ { // runs at 10, 11 and 12
		lane.Schedule(id)
		q.RunUntil(q.Now() + 1)
	}
	q.RunUntil(11) // moves the runs at 10 and 11 to 20 and 21
	if len(got) != 0 || q.LaneMoved() != 2 {
		t.Fatalf("before the horizon: fired %v, moved %d runs, want nothing fired and 2 moved", got, q.LaneMoved())
	}
	lane.MoveBefore(math.Inf(-1))
	q.RunUntil(100)
	if want := []firing{{12, 2}, {20, 0}, {21, 1}}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestPendingNow: the entries due at the current instant that have not
// fired are the rest of the run being walked and the runs at Now behind a
// heap event; an entry a run carried past Now, walked or moved, is not.
func TestPendingNow(t *testing.T) {
	q := New()
	var lane *Lane[int]
	pending := func(id int) bool { return lane.PendingNow(func(v int) bool { return v == id }) }
	var seen [][]bool
	lane, err := NewLane(q, laneDelay, func(_ float64, id int) bool {
		seen = append(seen, []bool{pending(0), pending(1), pending(2), pending(3)})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	lane.Schedule(0)
	lane.Schedule(1)
	if _, err := q.After(laneDelay, Func(func(float64) {
		seen = append(seen, []bool{pending(0), pending(1), pending(2), pending(3)})
	})); err != nil {
		t.Fatal(err)
	}
	lane.Schedule(2)
	if pending(0) {
		t.Fatal("an entry due later reads as pending now")
	}
	q.RunUntil(laneDelay)
	want := [][]bool{
		{false, true, true, false},   // entry 0 firing: 1 is the rest of its run, 2 the run behind the heap event
		{false, false, true, false},  // entry 1
		{false, false, true, false},  // the heap event
		{false, false, false, false}, // entry 2
	}
	if fmt.Sprint(seen) != fmt.Sprint(want) {
		t.Fatalf("pending while firing: %v, want %v", seen, want)
	}
	lane.MoveBefore(math.Inf(1))
	lane.Schedule(3)
	if _, err := q.After(laneDelay, Func(func(float64) {
		seen = append(seen, []bool{pending(3)})
	})); err != nil {
		t.Fatal(err)
	}
	q.RunUntil(2 * laneDelay)
	if last := seen[len(seen)-1]; last[0] || q.LaneMoved() != 1 {
		t.Fatalf("after moving %d runs, an entry its moved run carried past Now reads as pending: %v", q.LaneMoved(), last[0])
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

// TestMoveBeforeDefaultMovesNothing: until MoveBefore names an instant,
// every run is walked; a run due before the instant it names is moved
// whole, a delay at a time, and fires once it has reached it.
func TestMoveBeforeDefaultMovesNothing(t *testing.T) {
	q := New()
	var got []float64
	lane, err := NewLane(q, laneDelay, func(now float64, _ int) bool { got = append(got, now); return true })
	if err != nil {
		t.Fatal(err)
	}
	lane.Schedule(0)
	if !q.Step() || len(got) != 1 || q.LaneMoved() != 0 {
		t.Fatalf("Step fired %v and moved %d runs, want one firing and none moved", got, q.LaneMoved())
	}
	lane.MoveBefore(4 * laneDelay)
	lane.Schedule(1) // due at 2·laneDelay, moved to 3·laneDelay, then 4·laneDelay
	if !q.Step() || !slices.Equal(got, []float64{laneDelay, 4 * laneDelay}) || q.LaneMoved() != 2 {
		t.Fatalf("Step fired at %v and moved %d runs, want the second entry at %v after 2 moves", got, q.LaneMoved(), 4*laneDelay)
	}
}
