package sim

import (
	"math"
	"testing"
	"time"

	"barter/internal/metrics"
	"barter/internal/strategy"
)

// testCollector builds a collector over the legacy mix, past warm-up, and
// feeds it the given per-class download times (minutes).
func testCollector(sharingMin, nonSharingMin []float64) *collector {
	mix := strategy.LegacyMix(0.5)
	c := newCollector(0, mix, 1)
	for _, m := range nonSharingMin {
		c.downloadDone(1, 0, m) // class 0 = non-sharing in the legacy mix
	}
	for _, m := range sharingMin {
		c.downloadDone(1, 1, m)
	}
	return c
}

// completed returns the completed downloads of the sharing (or non-sharing)
// side of a result.
func completed(r *Result, sharing bool) int {
	n, _, _ := r.side(sharing)
	return n
}

func TestMeanDownloadMinPerClass(t *testing.T) {
	c := testCollector([]float64{10, 20}, []float64{40, 60, 80})
	res := c.result("2-5-way", 1000, 42, []int{3, 2})
	if got := res.MeanDownloadMin(true); got != 15 {
		t.Fatalf("sharing mean = %v, want 15", got)
	}
	if got := res.MeanDownloadMin(false); got != 60 {
		t.Fatalf("non-sharing mean = %v, want 60", got)
	}
	if got := res.MeanDownloadMinAll(); got != (10+20+40+60+80)/5.0 {
		t.Fatalf("combined mean = %v, want 42", got)
	}
	if sh, non := completed(res, true), completed(res, false); sh != 2 || non != 3 {
		t.Fatalf("completions = %d/%d, want 2/3", sh, non)
	}
}

func TestMeanDownloadMinEmptyClasses(t *testing.T) {
	res := testCollector(nil, nil).result("2-5-way", 1000, 0, []int{1, 1})
	if !math.IsNaN(res.MeanDownloadMin(true)) || !math.IsNaN(res.MeanDownloadMin(false)) {
		t.Fatal("empty classes must report NaN means")
	}
	if !math.IsNaN(res.MeanDownloadMinAll()) {
		t.Fatal("empty run must report NaN combined mean")
	}

	// One-sided runs still aggregate correctly.
	oneSided := testCollector([]float64{30}, nil).result("2-5-way", 1000, 0, []int{1, 1})
	if got := oneSided.MeanDownloadMinAll(); got != 30 {
		t.Fatalf("one-sided combined mean = %v, want 30", got)
	}
}

func TestSpeedupSharingVsNonSharing(t *testing.T) {
	res := testCollector([]float64{10}, []float64{25}).result("2-5-way", 1000, 0, []int{1, 1})
	if got := res.SpeedupSharingVsNonSharing(); got != 2.5 {
		t.Fatalf("speedup = %v, want 2.5", got)
	}
	// Undefined when either class is empty...
	if s := testCollector([]float64{10}, nil).result("x", 1, 0, []int{1, 1}); !math.IsNaN(s.SpeedupSharingVsNonSharing()) {
		t.Fatal("speedup with empty non-sharing class must be NaN")
	}
	if s := testCollector(nil, []float64{10}).result("x", 1, 0, []int{1, 1}); !math.IsNaN(s.SpeedupSharingVsNonSharing()) {
		t.Fatal("speedup with empty sharing class must be NaN")
	}
	// ...and when the sharing mean is zero (division guard).
	if s := testCollector([]float64{0}, []float64{10}).result("x", 1, 0, []int{1, 1}); !math.IsNaN(s.SpeedupSharingVsNonSharing()) {
		t.Fatal("speedup with zero sharing mean must be NaN")
	}
}

// TestSummaryContents: the collector's tallies reach Result's headline
// fields as they were counted — policy, events and horizon, the sides'
// completions, means and speedup, the session counts and exchange
// fraction — and a legacy run reports exactly its two classes.
func TestSummaryContents(t *testing.T) {
	c := testCollector([]float64{10, 20}, []float64{40})
	c.bySize = []ringTally{1: {count: 1}, 2: {count: 3}} // non-exchange, pairwise
	c.exchSessions, c.allSessions = 3, 4
	res := c.result("2-5-way", 30_000, 12345, []int{1, 2})
	if res.Policy != "2-5-way" || res.Events != 12345 || res.SimulatedSeconds != 30_000 {
		t.Fatalf("policy/events/horizon = %s/%d/%v", res.Policy, res.Events, res.SimulatedSeconds)
	}
	if completed(res, true) != 2 || res.MeanDownloadMin(true) != 15 ||
		completed(res, false) != 1 || res.MeanDownloadMin(false) != 40 {
		t.Fatalf("sides: sharing %d (mean %v), non-sharing %d (mean %v); want 2 (15), 1 (40)",
			completed(res, true), res.MeanDownloadMin(true), completed(res, false), res.MeanDownloadMin(false))
	}
	if got := res.SpeedupSharingVsNonSharing(); math.Abs(got-40.0/15) > 1e-12 {
		t.Fatalf("speedup = %v, want 40/15", got)
	}
	if res.SessionCount[TypeNonExchange] != 1 || res.SessionCount[TypePairwise] != 3 || res.ExchangeFraction != 0.75 {
		t.Fatalf("session counts %v, exchange fraction %v; want 1 non-exchange, 3 pairwise, 0.75", res.SessionCount, res.ExchangeFraction)
	}
	if len(res.Classes) != 2 || res.Class(strategy.LabelSharing) == nil || res.Class(strategy.LabelNonSharing) == nil {
		t.Fatalf("legacy run classes = %+v", res.Classes)
	}
	nonSharing, sharing := res.Classes[0], res.Classes[1]
	if nonSharing.Peers != 1 || nonSharing.Completed != 1 || sharing.Peers != 2 || sharing.Completed != 2 {
		t.Fatalf("classes %+v", res.Classes)
	}
}

// TestSummaryRichMixAddsClassLines: in a rich mix every class has its own
// Result entry with its size, completions and whitewashes.
func TestSummaryRichMixAddsClassLines(t *testing.T) {
	mix := strategy.Mix{
		{Strategy: strategy.Whitewasher(), Frac: 0.5},
		{Strategy: strategy.Sharing(), Frac: 0.5},
	}
	c := newCollector(0, mix, 1)
	c.downloadDone(1, 0, 30)
	c.whitewashes[0] = 4
	res := c.result("2-5-way", 1000, 1, []int{2, 2})
	ww := res.Class(strategy.LabelWhitewasher)
	if len(res.Classes) != 2 || ww == nil {
		t.Fatalf("rich-mix classes = %+v", res.Classes)
	}
	if ww.Peers != 2 || ww.Completed != 1 || ww.Whitewashes != 4 {
		t.Fatalf("whitewasher class = %+v; want 2 peers, 1 done, 4 whitewashes", *ww)
	}
	if other := res.Classes[1]; other.Completed != 0 || other.Whitewashes != 0 {
		t.Fatalf("sharing class = %+v; want no completions or whitewashes", other)
	}
}

// TestWarmupWindowExcluded: observations before the warm-up boundary must
// not reach any aggregate, and a session's blocks count from the first that
// lands at or after it, whether credited in one batch or several.
func TestWarmupWindowExcluded(t *testing.T) {
	c := newCollector(100*time.Second, strategy.LegacyMix(0.5), 1000)
	c.downloadDone(50*time.Second, 1, 10)  // before warm-up: dropped
	c.downloadDone(150*time.Second, 1, 30) // counted
	s := &Sim{delta: 10 * time.Second, col: c}
	sess := &session{dl: &download{}, startAt: 50 * time.Second, dstClass: 1}
	s.creditUntil(sess, 90*time.Second)  // blocks at 60..90 s: dropped
	s.creditUntil(sess, 150*time.Second) // 100..150 s: counted
	res := c.result("x", 1000, 0, []int{1, 1})
	if completed(res, true) != 1 || res.MeanDownloadMin(true) != 30 {
		t.Fatalf("warm-up leak: completed=%d mean=%v", completed(res, true), res.MeanDownloadMin(true))
	}
	if sess.sent != 10 || res.VolumePerPeerMB(true) != 0.75 {
		t.Fatalf("%d blocks credited, volume = %v MB; want 10 and 0.75 (6 blocks of 1000 kbit)", sess.sent, res.VolumePerPeerMB(true))
	}
}

// TestLegacySidesAreTheClasses: in a nil-Mix run each side of the
// sharing/non-sharing split is exactly one class, and every side aggregate
// is that class's own value, bit for bit — the two-class figures depend on
// it.
func TestLegacySidesAreTheClasses(t *testing.T) {
	cfg := testConfig()
	cfg.Mix = nil
	res := runOne(t, cfg)
	sh, non := res.Class(strategy.LabelSharing), res.Class(strategy.LabelNonSharing)
	if sh == nil || non == nil || len(res.Classes) != 2 {
		t.Fatalf("legacy run classes = %+v", res.Classes)
	}
	if sh.Completed == 0 || non.Completed == 0 {
		t.Fatalf("run too short: %d/%d completions", sh.Completed, non.Completed)
	}
	if completed(res, true) != sh.Completed || completed(res, false) != non.Completed {
		t.Fatal("side completions differ from the class counts")
	}
	if res.MeanDownloadMin(true) != sh.DownloadTime.Mean() || res.MeanDownloadMin(false) != non.DownloadTime.Mean() {
		t.Fatal("side means differ from the class means")
	}
	all := (sh.DownloadTime.Mean()*float64(sh.Completed) + non.DownloadTime.Mean()*float64(non.Completed)) /
		float64(sh.Completed+non.Completed)
	if res.MeanDownloadMinAll() != all {
		t.Fatalf("combined mean = %v, want %v", res.MeanDownloadMinAll(), all)
	}
	if res.VolumePerPeerMB(true) != sh.VolumePerPeerMB || res.VolumePerPeerMB(false) != non.VolumePerPeerMB {
		t.Fatal("side volumes differ from the class volumes")
	}
}

// TestSideFoldsSeveralClasses: with two classes on one side, the side mean
// is over both classes' samples together and the side volume is weighted
// by class size.
func TestSideFoldsSeveralClasses(t *testing.T) {
	var a, b, c metrics.Sample
	a.Add(1)
	a.Add(2)
	b.Add(6)
	c.Add(100)
	res := &Result{Classes: []ClassResult{
		{Label: "x", Share: true, Peers: 1, Completed: 2, DownloadTime: &a, VolumePerPeerMB: 10},
		{Label: "free", Share: false, Peers: 5, Completed: 1, DownloadTime: &c, VolumePerPeerMB: 7},
		{Label: "y", Share: true, Peers: 3, Completed: 1, DownloadTime: &b, VolumePerPeerMB: 2},
	}}
	if got := res.MeanDownloadMin(true); got != 3 {
		t.Fatalf("sharing mean = %v, want (1+2+6)/3 = 3", got)
	}
	if got := completed(res, true); got != 3 {
		t.Fatalf("sharing completions = %d, want 3", got)
	}
	if got := res.VolumePerPeerMB(true); got != 4 {
		t.Fatalf("sharing volume = %v MB, want (1*10+3*2)/4 = 4", got)
	}
	if got, want := res.MeanDownloadMinAll(), (1+2+6+100)/4.0; got != want {
		t.Fatalf("combined mean = %v, want %v", got, want)
	}
	if res.MeanDownloadMin(false) != 100 || res.VolumePerPeerMB(false) != 7 {
		t.Fatal("a one-class side must report that class's own values")
	}
}
