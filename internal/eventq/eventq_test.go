package eventq

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	q := New()
	if q.Now() != 0 {
		t.Fatalf("new queue clock = %v, want 0", q.Now())
	}
	if pending(q) != 0 {
		t.Fatalf("new queue len = %d, want 0", pending(q))
	}
	if q.Step() {
		t.Fatal("Step on empty queue reported an event")
	}
}

func TestFiresInTimestampOrder(t *testing.T) {
	q := New()
	var got []float64
	times := []float64{5, 1, 3, 2, 4}
	for _, at := range times {
		at := at
		if _, err := q.At(at, Func(func(now float64) { got = append(got, now) })); err != nil {
			t.Fatalf("At(%v): %v", at, err)
		}
	}
	runUntil(q, 10)
	want := []float64{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
}

func TestTiesFireInScheduleOrder(t *testing.T) {
	q := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		if _, err := q.At(7, Func(func(float64) { got = append(got, i) })); err != nil {
			t.Fatal(err)
		}
	}
	runUntil(q, 7)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order at index %d = %d, want %d", i, v, i)
		}
	}
}

// TestWholeNanosecondsNear2to53: both callers schedule whole nanoseconds,
// which float64 holds exactly below 2^53. Near the bound, delays of one
// nanosecond still make distinct instants, the clock lands on each exactly,
// and events at one instant fire in schedule order.
func TestWholeNanosecondsNear2to53(t *testing.T) {
	const top = 1<<53 - 1
	q := New()
	q.AdvanceTo(top - 10)
	type fired struct {
		at float64
		id int
	}
	var got []fired
	at := func(id int) Func { return func(now float64) { got = append(got, fired{now, id}) } }
	for id, d := range []float64{3, 1, 3, 10, 1, 2} {
		if _, err := q.After(d, at(id)); err != nil {
			t.Fatal(err)
		}
	}
	runUntil(q, top)
	want := []fired{{top - 9, 1}, {top - 9, 4}, {top - 8, 5}, {top - 7, 0}, {top - 7, 2}, {top, 3}}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] || float64(int64(got[i].at)) != got[i].at {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if q.Now() != top {
		t.Fatalf("clock %v, want %v", q.Now(), float64(top))
	}
}

func TestSchedulePastRejected(t *testing.T) {
	q := New()
	if _, err := q.At(5, Func(func(float64) {})); err != nil {
		t.Fatal(err)
	}
	runUntil(q, 5)
	if _, err := q.At(4, Func(func(float64) {})); !errors.Is(err, ErrPast) {
		t.Fatalf("At in the past: err = %v, want ErrPast", err)
	}
	if _, err := q.After(-1, Func(func(float64) {})); !errors.Is(err, ErrPast) {
		t.Fatalf("After negative: err = %v, want ErrPast", err)
	}
}

func TestScheduleAtCurrentInstant(t *testing.T) {
	q := New()
	fired := false
	if _, err := q.At(0, Func(func(float64) { fired = true })); err != nil {
		t.Fatal(err)
	}
	runUntil(q, 0)
	if !fired {
		t.Fatal("event at the current instant did not fire")
	}
}

func TestCancel(t *testing.T) {
	q := New()
	fired := false
	h, err := q.At(1, Func(func(float64) { fired = true }))
	if err != nil {
		t.Fatal(err)
	}
	if !q.Cancel(h) {
		t.Fatal("Cancel of pending event returned false")
	}
	if q.Cancel(h) {
		t.Fatal("second Cancel returned true")
	}
	if pending(q) != 0 {
		t.Fatalf("Len after cancel = %d, want 0", pending(q))
	}
	runUntil(q, 2)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelInvalidHandle(t *testing.T) {
	q := New()
	if q.Cancel(Handle{}) {
		t.Fatal("Cancel of zero handle returned true")
	}
	var h Handle
	if h.Valid() {
		t.Fatal("zero handle reports valid")
	}
}

func TestCancelAfterFire(t *testing.T) {
	q := New()
	h, err := q.At(1, Func(func(float64) {}))
	if err != nil {
		t.Fatal(err)
	}
	runUntil(q, 1)
	if q.Cancel(h) {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	q := New()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		if _, err := q.At(at, Func(func(now float64) { fired = append(fired, now) })); err != nil {
			t.Fatal(err)
		}
	}
	n := runUntil(q, 3)
	if n != 3 {
		t.Fatalf("RunUntil(3) fired %d, want 3", n)
	}
	if q.Now() != 3 {
		t.Fatalf("clock = %v, want 3", q.Now())
	}
	if pending(q) != 2 {
		t.Fatalf("pending = %d, want 2", pending(q))
	}
	// Clock advances to horizon even with no event exactly there.
	runUntil(q, 4.5)
	if q.Now() != 4.5 {
		t.Fatalf("clock = %v, want 4.5", q.Now())
	}
}

func TestEventSchedulesEvent(t *testing.T) {
	q := New()
	var order []string
	if _, err := q.At(1, Func(func(float64) {
		order = append(order, "first")
		if _, err := q.After(1, Func(func(float64) { order = append(order, "second") })); err != nil {
			t.Errorf("nested After: %v", err)
		}
	})); err != nil {
		t.Fatal(err)
	}
	runUntil(q, 10)
	if len(order) != 2 || order[0] != "first" || order[1] != "second" {
		t.Fatalf("order = %v, want [first second]", order)
	}
	if q.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", q.Fired())
	}
}

func TestEventCancelsPeer(t *testing.T) {
	q := New()
	fired := false
	var victim Handle
	var err error
	victim, err = q.At(2, Func(func(float64) { fired = true }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.At(1, Func(func(float64) { q.Cancel(victim) })); err != nil {
		t.Fatal(err)
	}
	runUntil(q, 3)
	if fired {
		t.Fatal("event cancelled by an earlier event still fired")
	}
}

// TestPropertyHeapOrdersArbitraryTimestamps verifies, for random schedules,
// that events fire in nondecreasing timestamp order and every non-cancelled
// event fires exactly once.
func TestPropertyHeapOrdersArbitraryTimestamps(t *testing.T) {
	f := func(raw []uint16, cancelMask []bool) bool {
		q := New()
		var fireTimes []float64
		handles := make([]Handle, len(raw))
		expected := 0
		for i, r := range raw {
			at := float64(r % 1000)
			h, err := q.At(at, Func(func(now float64) { fireTimes = append(fireTimes, now) }))
			if err != nil {
				return false
			}
			handles[i] = h
		}
		cancelled := make(map[int]bool)
		for i := range handles {
			if i < len(cancelMask) && cancelMask[i] {
				q.Cancel(handles[i])
				cancelled[i] = true
			}
		}
		for i := range handles {
			if !cancelled[i] {
				expected++
			}
		}
		runUntil(q, 1e9)
		if len(fireTimes) != expected {
			return false
		}
		return sort.Float64sAreSorted(fireTimes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeRandomWorkload(t *testing.T) {
	q := New()
	r := rand.New(rand.NewSource(42))
	const n = 20000
	var fired int
	last := -1.0
	for i := 0; i < n; i++ {
		at := r.Float64() * 1000
		if _, err := q.At(at, Func(func(now float64) {
			if now < last {
				t.Errorf("time went backwards: %v after %v", now, last)
			}
			last = now
			fired++
		})); err != nil {
			t.Fatal(err)
		}
	}
	runUntil(q, 1001)
	if fired != n {
		t.Fatalf("fired %d of %d events", fired, n)
	}
}

// TestStaleHandleAfterItemReuse exercises the free list: an item recycled
// after firing (or after a cancelled pop) is reused for a new event, and the
// old handle must not be able to cancel the item's new occupant.
func TestStaleHandleAfterItemReuse(t *testing.T) {
	q := New()
	h1, err := q.At(1, Func(func(float64) {}))
	if err != nil {
		t.Fatal(err)
	}
	runUntil(q, 1) // fires and recycles h1's item
	fired := false
	h2, err := q.At(2, Func(func(float64) { fired = true }))
	if err != nil {
		t.Fatal(err)
	}
	if q.Cancel(h1) {
		t.Fatal("stale handle cancelled a reused item")
	}
	runUntil(q, 2)
	if !fired {
		t.Fatal("event on reused item did not fire")
	}
	if q.Cancel(h2) {
		t.Fatal("Cancel after fire returned true on reused item")
	}
}

// TestCancelledItemsAreReused verifies cancelled entries drain through the
// free list instead of accumulating in the heap forever.
func TestCancelledItemsAreReused(t *testing.T) {
	q := New()
	for round := 0; round < 100; round++ {
		h, err := q.After(1, Func(func(float64) { t.Error("cancelled event fired") }))
		if err != nil {
			t.Fatal(err)
		}
		q.Cancel(h)
		runUntil(q, q.Now()+2)
	}
	if len(q.heap) != 0 {
		t.Fatalf("heap retains %d entries after all cancels drained", len(q.heap))
	}
	if got := len(q.free); got == 0 || got > 2 {
		t.Fatalf("free list holds %d items, want 1 or 2", got)
	}
}

// TestLenTracksCancelledAndFired pins Len across interleaved schedule,
// cancel, and fire operations.
func TestLenTracksCancelledAndFired(t *testing.T) {
	q := New()
	var hs []Handle
	for i := 0; i < 10; i++ {
		h, err := q.At(float64(i+1), Func(func(float64) {}))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	if pending(q) != 10 {
		t.Fatalf("Len = %d, want 10", pending(q))
	}
	q.Cancel(hs[3])
	q.Cancel(hs[7])
	if pending(q) != 8 {
		t.Fatalf("Len after 2 cancels = %d, want 8", pending(q))
	}
	runUntil(q, 5) // fires events at 1,2,3,5 (4 was cancelled)
	if pending(q) != 4 {
		t.Fatalf("Len after RunUntil(5) = %d, want 4", pending(q))
	}
	runUntil(q, 100)
	if pending(q) != 0 {
		t.Fatalf("Len after drain = %d, want 0", pending(q))
	}
	if q.Fired() != 8 {
		t.Fatalf("Fired = %d, want 8", q.Fired())
	}
}

// TestQuaternaryHeapRandomOpsWithCancels mixes scheduling, firing, and
// cancelling at random and checks the pop order stays nondecreasing with
// schedule-order tie-breaking.
func TestQuaternaryHeapRandomOpsWithCancels(t *testing.T) {
	q := New()
	r := rand.New(rand.NewSource(99))
	type rec struct{ at float64 }
	var fired []rec
	live := make(map[int]Handle)
	next := 0
	for i := 0; i < 50000; i++ {
		switch op := r.Intn(10); {
		case op < 6:
			at := q.Now() + r.Float64()*100
			h, err := q.At(at, Func(func(now float64) { fired = append(fired, rec{at: now}) }))
			if err != nil {
				t.Fatal(err)
			}
			live[next] = h
			next++
		case op < 8:
			for k, h := range live { // cancel one arbitrary live handle
				q.Cancel(h)
				delete(live, k)
				break
			}
		default:
			q.Step()
		}
	}
	runUntil(q, 1e12)
	for i := 1; i < len(fired); i++ {
		if fired[i].at < fired[i-1].at {
			t.Fatalf("fire order regressed at %d: %v after %v", i, fired[i].at, fired[i-1].at)
		}
	}
	if pending(q) != 0 {
		t.Fatalf("Len after drain = %d, want 0", pending(q))
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	q := New()
	r := rand.New(rand.NewSource(7))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		at := q.Now() + r.Float64()
		if _, err := q.At(at, Func(func(float64) {})); err != nil {
			b.Fatal(err)
		}
		if i%4 == 3 {
			q.Step()
		}
	}
}

// runUntil fires events in timestamp order until the queue is empty or the
// next event is strictly after horizon, then advances the clock to horizon,
// as the simulator's loop drives the queue. It returns the number fired.
func runUntil(q *Queue, horizon float64) uint64 {
	start := q.fired
	for q.Next() <= horizon {
		q.Step()
	}
	q.AdvanceTo(horizon)
	return q.fired - start
}

// pending recounts the heap's live events, cancelled ones excluded.
func pending(q *Queue) int {
	n := 0
	for _, it := range q.heap {
		if !it.cancelled {
			n++
		}
	}
	return n
}
