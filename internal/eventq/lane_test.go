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

// harness drives one queue through a script. With a lane, fixed-delay
// schedules take it; without, they go through After like any other event —
// the heap-only queue is the reference the lane must be indistinguishable
// from.
type harness struct {
	q     *Queue
	lane  *Lane
	fired []firing
	hs    []Handle
	next  int
}

func newHarness(t testing.TB, withLane bool) *harness {
	h := &harness{q: New()}
	if withLane {
		lane, err := h.q.NewLane(laneDelay)
		if err != nil {
			t.Fatal(err)
		}
		h.lane = lane
	}
	return h
}

// event returns an event that logs its firing and, while chain > 0,
// schedules a fixed-delay successor from inside Fire.
func (h *harness) event(chain int) Event {
	id := h.next
	h.next++
	return Func(func(now float64) {
		h.fired = append(h.fired, firing{at: now, id: id})
		if chain > 0 {
			h.fixed(chain - 1)
		}
	})
}

func (h *harness) fixed(chain int) {
	ev := h.event(chain)
	if h.lane != nil {
		h.hs = append(h.hs, h.lane.Schedule(ev))
		return
	}
	hd, err := h.q.After(laneDelay, ev)
	if err != nil {
		panic(err)
	}
	h.hs = append(h.hs, hd)
}

func (h *harness) arbitrary(delay float64) {
	hd, err := h.q.After(delay, h.event(0))
	if err != nil {
		panic(err)
	}
	h.hs = append(h.hs, hd)
}

// step interprets one scripted operation; arg parameterizes it.
func (h *harness) step(op, arg byte) (cancelled bool) {
	switch op % 6 {
	case 0:
		h.fixed(0)
	case 1:
		h.fixed(int(arg % 4))
	case 2:
		h.arbitrary(float64(arg%16) * laneDelay / 4) // 0 is a same-instant tie
	case 3:
		if len(h.hs) > 0 { // live, stale, and already-cancelled handles alike
			cancelled = h.q.Cancel(h.hs[int(arg)%len(h.hs)])
		}
	case 4:
		h.q.Step()
	case 5:
		h.q.RunUntil(h.q.Now() + float64(arg%8)*laneDelay/2)
	}
	return cancelled
}

// runDifferential feeds one script to a lane-enabled and a heap-only queue
// and fails on the first observable difference.
func runDifferential(t testing.TB, script []byte) {
	a, b := newHarness(t, true), newHarness(t, false)
	compared := 0 // prefix of the fired logs already found equal
	check := func(i int) {
		t.Helper()
		if a.q.Len() != b.q.Len() || a.q.Fired() != b.q.Fired() || a.q.Now() != b.q.Now() {
			t.Fatalf("op %d: lane queue len/fired/now = %d/%d/%v, heap queue %d/%d/%v",
				i, a.q.Len(), a.q.Fired(), a.q.Now(), b.q.Len(), b.q.Fired(), b.q.Now())
		}
		if !slices.Equal(a.fired[compared:], b.fired[compared:]) {
			t.Fatalf("op %d: fired sequences diverged:\n lane %v\n heap %v", i, a.fired[compared:], b.fired[compared:])
		}
		compared = len(a.fired)
	}
	for i := 0; i+1 < len(script); i += 2 {
		aC := a.step(script[i], script[i+1])
		bC := b.step(script[i], script[i+1])
		if aC != bC {
			t.Fatalf("op %d: lane queue cancel answered %v, heap queue %v", i/2, aC, bC)
		}
		check(i / 2)
	}
	a.q.RunUntil(a.q.Now() + 1e6)
	b.q.RunUntil(b.q.Now() + 1e6)
	check(len(script) / 2)
	if a.q.Len() != 0 {
		t.Fatalf("drained lane queue still reports %d pending", a.q.Len())
	}
	if b.q.LaneFired() != 0 {
		t.Fatalf("heap-only queue counted %d lane events", b.q.LaneFired())
	}
	for i := 1; i < len(a.fired); i++ {
		if a.fired[i].at < a.fired[i-1].at {
			t.Fatalf("fire order regressed at %d: %v after %v", i, a.fired[i], a.fired[i-1])
		}
	}
}

// TestLaneMatchesHeapOnly is the seeded property test: random interleavings
// of fixed-delay and arbitrary-delay schedules (ties included), events that
// schedule from inside Fire, cancels of live, stale and already-cancelled
// handles, Step and RunUntil horizons must be indistinguishable
// between a queue with a lane and one without.
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
	f.Add([]byte{0, 0, 3, 0, 3, 0, 5, 7, 0, 0, 3, 0}) // cancel, double cancel, stale cancel after recycling
	f.Add([]byte{1, 3, 2, 0, 5, 2, 5, 7})             // chains, same-instant event, horizons
	f.Fuzz(func(t *testing.T, script []byte) {
		runDifferential(t, script)
	})
}

// TestLaneCancelRecyclesItem: a cancelled lane entry drains through the free
// list like a cancelled heap entry, and a stale handle to it cannot cancel
// the item's next life.
func TestLaneCancelRecyclesItem(t *testing.T) {
	q := New()
	lane, err := q.NewLane(laneDelay)
	if err != nil {
		t.Fatal(err)
	}
	h1 := lane.Schedule(Func(func(float64) { t.Error("cancelled lane event fired") }))
	if !q.Cancel(h1) || q.Cancel(h1) {
		t.Fatal("first cancel must succeed and the second fail")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after cancelling the only event", q.Len())
	}
	if q.Step() {
		t.Fatal("Step fired a cancelled lane entry")
	}
	if q.laneLen != 0 || len(q.free) != 1 {
		t.Fatalf("cancelled entry not recycled: lane holds %d, free list %d", q.laneLen, len(q.free))
	}
	fired := false
	h2 := lane.Schedule(Func(func(float64) { fired = true }))
	if h2.it != h1.it {
		t.Fatal("lane did not reuse the recycled item")
	}
	if q.Cancel(h1) {
		t.Fatal("stale handle cancelled the item's next life")
	}
	q.RunUntil(2 * laneDelay)
	if !fired || q.Fired() != 1 || q.LaneFired() != 1 {
		t.Fatalf("fired=%v Fired=%d LaneFired=%d, want true/1/1", fired, q.Fired(), q.LaneFired())
	}
}

func TestNewLaneValidates(t *testing.T) {
	q := New()
	if _, err := q.NewLane(-1); err == nil {
		t.Error("negative lane delay accepted")
	}
	if _, err := q.NewLane(laneDelay); err != nil {
		t.Fatal(err)
	}
	if _, err := q.NewLane(laneDelay); err == nil {
		t.Error("second lane accepted")
	}
}

// BenchmarkLaneScheduleAndFire is BenchmarkScheduleAndFire's lane
// counterpart at the same steady depth.
func BenchmarkLaneScheduleAndFire(b *testing.B) {
	q := New()
	lane, err := q.NewLane(1)
	if err != nil {
		b.Fatal(err)
	}
	ev := Func(func(float64) {})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lane.Schedule(ev)
		if i%4 == 3 {
			q.Step()
		}
	}
}
