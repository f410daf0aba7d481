package sim

import (
	"math"
	"strings"
	"testing"

	"barter/internal/metrics"
	"barter/internal/strategy"
)

// testCollector builds a collector over the legacy mix, past warm-up, and
// feeds it the given per-class download times (minutes).
func testCollector(sharingMin, nonSharingMin []float64) *collector {
	mix := strategy.LegacyMix(0.5)
	c := newCollector(0, mix)
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

func TestSummaryContents(t *testing.T) {
	c := testCollector([]float64{10, 20}, []float64{40})
	c.bySize = []ringTally{1: {count: 1}, 2: {count: 3}} // non-exchange, pairwise
	c.exchSessions, c.allSessions = 3, 4
	res := c.result("2-5-way", 30_000, 12345, []int{1, 1})
	sum := res.Summary()
	for _, want := range []string{
		"policy=2-5-way", "events=12345",
		"sharing 2 (mean 15.0 min)", "non-sharing 1 (mean 40.0 min)",
		"speedup 2.67x", "pairwise=3", "non-exchange=1", "exchange fraction 0.75",
	} {
		if !strings.Contains(sum, want) {
			t.Fatalf("Summary missing %q:\n%s", want, sum)
		}
	}
	// The legacy two-class layout must not grow per-class lines.
	if strings.Contains(sum, "class ") {
		t.Fatalf("legacy summary gained class lines:\n%s", sum)
	}
}

func TestSummaryRichMixAddsClassLines(t *testing.T) {
	mix := strategy.Mix{
		{Strategy: strategy.Whitewasher(), Frac: 0.5},
		{Strategy: strategy.Sharing(), Frac: 0.5},
	}
	c := newCollector(0, mix)
	c.downloadDone(1, 0, 30)
	c.whitewashes[0] = 4
	res := c.result("2-5-way", 1000, 1, []int{2, 2})
	sum := res.Summary()
	if !strings.Contains(sum, "class whitewasher: 2 peers, 1 done") || !strings.Contains(sum, "4 whitewashes") {
		t.Fatalf("rich-mix summary missing class line:\n%s", sum)
	}
}

// TestWarmupWindowExcluded: observations before the warm-up boundary must
// not reach any aggregate.
func TestWarmupWindowExcluded(t *testing.T) {
	c := newCollector(100, strategy.LegacyMix(0.5))
	c.downloadDone(50, 1, 10)     // before warm-up: dropped
	c.blockReceived(50, 1, 8000)  // dropped
	c.downloadDone(150, 1, 30)    // counted
	c.blockReceived(150, 1, 8000) // counted
	res := c.result("x", 1000, 0, []int{1, 1})
	if completed(res, true) != 1 || res.MeanDownloadMin(true) != 30 {
		t.Fatalf("warm-up leak: completed=%d mean=%v", completed(res, true), res.MeanDownloadMin(true))
	}
	if res.VolumePerPeerMB(true) != 1 {
		t.Fatalf("volume = %v MB, want 1", res.VolumePerPeerMB(true))
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
