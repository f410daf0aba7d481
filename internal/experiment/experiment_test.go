package experiment

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"barter/internal/metrics"
	"barter/internal/sim"
)

func quickOpts() Options { return Options{Seed: 1, Quick: true} }

// skipShort gates the quick-world figure reproductions out of `go test
// -short`: each one runs a full sweep grid (seconds apiece, more under
// -race). Short mode keeps the registry, TSV, grid-machinery, and
// distributional tests, which exercise the same code paths on one run or
// none; the full suite and CI's long job run everything.
func skipShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("figure sweep skipped in -short; covered by the full suite")
	}
}

func runExp(t *testing.T, id string) *Report {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	rep, err := e.Run(quickOpts())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return rep
}

// TestConfigsValid: both base worlds the experiments build on pass the
// simulator's own validation.
func TestConfigsValid(t *testing.T) {
	for name, cfg := range map[string]sim.Config{"full": FullBase(), "quick": QuickBase()} {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s config invalid: %v", name, err)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table2", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "figw", "figt",
		"ablation-preemption", "ablation-credit", "ablation-search",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, id := range want {
		if all[i].ID != id {
			t.Fatalf("registry[%d] = %q, want %q", i, all[i].ID, id)
		}
		if all[i].Title == "" || all[i].Description == "" || all[i].Run == nil {
			t.Fatalf("experiment %q incomplete", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID found a nonexistent experiment")
	}
}

func seriesY(t *testing.T, tab *metrics.Table, name string) []float64 {
	t.Helper()
	s := tab.Get(name)
	if s == nil {
		t.Fatalf("series %q missing; have %v", name, seriesNames(tab))
	}
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Y
	}
	return out
}

func seriesNames(tab *metrics.Table) []string {
	var names []string
	for _, s := range tab.Series {
		names = append(names, s.Name)
	}
	return names
}

func TestTable2MentionsPaperParameters(t *testing.T) {
	rep := runExp(t, "table2")
	for _, want := range []string{"number of peers", "upload capacity", "freeloaders", "max pending"} {
		if !strings.Contains(rep.Text, want) {
			t.Fatalf("table2 missing %q:\n%s", want, rep.Text)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	skipShort(t)
	rep := runExp(t, "fig4")
	tab := rep.Tables[0]
	for _, name := range []string{
		"pairwise/sharing", "pairwise/non-sharing",
		"5-2-way/sharing", "5-2-way/non-sharing",
		"2-5-way/sharing", "2-5-way/non-sharing",
		"no exchange",
	} {
		if tab.Get(name) == nil {
			t.Fatalf("fig4 missing series %q; have %v", name, seriesNames(tab))
		}
	}
	// Paper shape: at the tightest capacity (last sweep point), sharing
	// users beat non-sharing users under every exchange policy.
	for _, pol := range []string{"pairwise", "5-2-way", "2-5-way"} {
		sh := seriesY(t, tab, pol+"/sharing")
		non := seriesY(t, tab, pol+"/non-sharing")
		last := len(sh) - 1
		if sh[last] >= non[last] {
			t.Errorf("fig4 %s: sharing %.1f not below non-sharing %.1f at tightest capacity",
				pol, sh[last], non[last])
		}
	}
}

func TestFig5FractionRisesWithLoad(t *testing.T) {
	skipShort(t)
	rep := runExp(t, "fig5")
	tab := rep.Tables[0]
	for _, pol := range []string{"pairwise", "5-2-way", "2-5-way"} {
		ys := seriesY(t, tab, pol)
		for _, y := range ys {
			if y < 0 || y > 1 {
				t.Fatalf("fig5 %s: fraction %v out of [0,1]", pol, y)
			}
		}
		// x runs from high capacity to low; the fraction at the loaded end
		// must exceed the unloaded end (paper: grows almost linearly).
		if ys[len(ys)-1] <= ys[0] {
			t.Errorf("fig5 %s: fraction did not grow with load (%v)", pol, ys)
		}
	}
}

func TestFig6RingBenefitShape(t *testing.T) {
	skipShort(t)
	rep := runExp(t, "fig6")
	tab := rep.Tables[0]
	// Paper shape: allowing rings (N=2) differentiates the classes relative
	// to N=1 (no exchange).
	sh := seriesY(t, tab, "2-N-way/sharing")
	non := seriesY(t, tab, "2-N-way/non-sharing")
	if len(sh) < 3 {
		t.Fatalf("fig6 too few points: %d", len(sh))
	}
	gapN1 := non[0] / sh[0]
	gapN2 := non[1] / sh[1]
	if gapN2 <= gapN1*0.98 {
		t.Errorf("fig6: pairwise (N=2) gap %.2f not above no-exchange gap %.2f", gapN2, gapN1)
	}
}

func TestFig7CDFsWellFormed(t *testing.T) {
	rep := runExp(t, "fig7")
	tab := rep.Tables[0]
	if tab.Get("non-exchange") == nil || tab.Get("pairwise") == nil {
		t.Fatalf("fig7 missing base classes; have %v", seriesNames(tab))
	}
	for _, s := range tab.Series {
		prev := -1.0
		for _, p := range s.Points {
			if p.Y < prev || p.Y < 0 || p.Y > 1 {
				t.Fatalf("fig7 %s: CDF not monotone in [0,1]", s.Name)
			}
			prev = p.Y
		}
	}
}

func TestFig8WaitingWorseForNonExchange(t *testing.T) {
	rep := runExp(t, "fig8")
	tab := rep.Tables[0]
	nx := tab.Get("non-exchange")
	pw := tab.Get("pairwise")
	if nx == nil || pw == nil {
		t.Fatalf("fig8 missing classes; have %v", seriesNames(tab))
	}
	// Paper shape: exchange transfers start much sooner; compare medians
	// (x value where the CDF crosses 0.5).
	med := func(s *metrics.Series) float64 {
		for _, p := range s.Points {
			if p.Y >= 0.5 {
				return p.X
			}
		}
		return math.Inf(1)
	}
	if med(pw) > med(nx) {
		t.Errorf("fig8: pairwise median wait %.1f above non-exchange %.1f", med(pw), med(nx))
	}
}

func TestFig9PopularitySweep(t *testing.T) {
	skipShort(t)
	rep := runExp(t, "fig9")
	tab := rep.Tables[0]
	sh := seriesY(t, tab, "2-5-way/sharing")
	non := seriesY(t, tab, "2-5-way/non-sharing")
	// Differentiation exists at the zipf-like end (last point).
	last := len(sh) - 1
	if sh[last] >= non[last] {
		t.Errorf("fig9: no differentiation at f=1 (sharing %.1f, non %.1f)", sh[last], non[last])
	}
}

func TestFig10VolumesPositive(t *testing.T) {
	skipShort(t)
	rep := runExp(t, "fig10")
	tab := rep.Tables[0]
	sh := seriesY(t, tab, "2-5-way/sharing")
	non := seriesY(t, tab, "2-5-way/non-sharing")
	for i := range sh {
		if sh[i] <= 0 {
			t.Fatalf("fig10: non-positive sharing volume %v", sh[i])
		}
		// Paper shape: sharers move more data than free-riders.
		if sh[i] <= non[i] {
			t.Errorf("fig10: sharing volume %.0f MB not above non-sharing %.0f MB", sh[i], non[i])
		}
	}
}

func TestFig11SpeedupsPresent(t *testing.T) {
	skipShort(t)
	rep := runExp(t, "fig11")
	tab := rep.Tables[0]
	for _, name := range []string{"cat/peer=2", "cat/peer=4", "cat/peer=8"} {
		ys := seriesY(t, tab, name)
		for _, y := range ys {
			if math.IsNaN(y) || y <= 0 {
				t.Fatalf("fig11 %s: bad speedup %v", name, y)
			}
		}
	}
}

func TestFig12GapPersistsAcrossFreeriderFractions(t *testing.T) {
	skipShort(t)
	rep := runExp(t, "fig12")
	tab := rep.Tables[0]
	sh := seriesY(t, tab, "2-5-way/sharing")
	non := seriesY(t, tab, "2-5-way/non-sharing")
	// Paper: the gap persists regardless of the non-sharing fraction.
	better := 0
	for i := range sh {
		if sh[i] < non[i] {
			better++
		}
	}
	if better < len(sh)-1 {
		t.Errorf("fig12: sharing beat non-sharing at only %d of %d fractions", better, len(sh))
	}
}

func TestFigWAdversaries(t *testing.T) {
	skipShort(t)
	rep := runExp(t, "figw")
	tab := rep.Tables[0]
	// Every mechanism x adversary x class series must exist with finite,
	// positive download times at every swept fraction.
	for _, mech := range []string{"exchange", "credit"} {
		for _, adv := range []string{"adaptive", "whitewasher", "partial"} {
			for _, class := range []string{"sharing", "non-sharing", adv} {
				for _, y := range seriesY(t, tab, fmt.Sprintf("%s:%s/%s", mech, adv, class)) {
					if math.IsNaN(y) || y <= 0 {
						t.Fatalf("%s:%s/%s has bad value %v", mech, adv, class, y)
					}
				}
			}
		}
	}
	// The canonical whitewashing result: under the credit ranking the
	// whitewasher launders its history and clearly beats the static
	// free-rider control at the lowest adversary fraction, where the
	// control's participation level has decayed the most.
	wwCredit := seriesY(t, tab, "credit:whitewasher/whitewasher")
	ctlCredit := seriesY(t, tab, "credit:whitewasher/non-sharing")
	if wwCredit[0] >= ctlCredit[0] {
		t.Errorf("credit ranking: whitewasher %.1f min not faster than control %.1f min",
			wwCredit[0], ctlCredit[0])
	}
	// Under exchange, whitewashing buys nothing: the whitewasher stays in
	// free-rider territory, far from the sharing class.
	wwExch := seriesY(t, tab, "exchange:whitewasher/whitewasher")
	shExch := seriesY(t, tab, "exchange:whitewasher/sharing")
	if wwExch[0] <= shExch[0] {
		t.Errorf("exchange: whitewasher %.1f min faster than sharers %.1f min (whitewashing should not pay)",
			wwExch[0], shExch[0])
	}
	// Exchange coerces the adaptive free-rider into contributing: it lands
	// near the sharing class, well ahead of the static control.
	adExch := seriesY(t, tab, "exchange:adaptive/adaptive")
	adCtl := seriesY(t, tab, "exchange:adaptive/non-sharing")
	for i := range adExch {
		if adExch[i] >= adCtl[i] {
			t.Errorf("exchange: adaptive %.1f min not faster than static control %.1f min at point %d",
				adExch[i], adCtl[i], i)
		}
	}
}

func TestAblationPreemption(t *testing.T) {
	rep := runExp(t, "ablation-preemption")
	tab := rep.Tables[0]
	with := seriesY(t, tab, "with preemption")
	without := seriesY(t, tab, "without preemption")
	if len(with) != len(without) {
		t.Fatalf("series lengths differ")
	}
	for _, y := range append(append([]float64{}, with...), without...) {
		if math.IsNaN(y) || y <= 0 {
			t.Fatalf("bad speedup value %v", y)
		}
	}
}

func TestAblationCreditOrdering(t *testing.T) {
	rep := runExp(t, "ablation-credit")
	tab := rep.Tables[0]
	exch := seriesY(t, tab, "exchange (2-5-way)")
	fifo := seriesY(t, tab, "fifo (no incentive)")
	kazaa := seriesY(t, tab, "kazaa level (cheated)")
	// The paper's core claim: exchanges discriminate, cheated self-reports
	// do not. Compare at the most loaded sweep point.
	last := len(exch) - 1
	if exch[last] <= fifo[last] {
		t.Errorf("exchange speedup %.2f not above fifo %.2f", exch[last], fifo[last])
	}
	if kazaa[last] >= exch[last] {
		t.Errorf("cheated kazaa speedup %.2f not below exchange %.2f", kazaa[last], exch[last])
	}
}

func TestAblationSearchBudget(t *testing.T) {
	rep := runExp(t, "ablation-search")
	tab := rep.Tables[0]
	frac := seriesY(t, tab, "exchange fraction")
	if len(frac) < 2 {
		t.Fatal("too few budget points")
	}
	// A tiny budget must not beat a large one by much; mostly this checks
	// the sweep runs and produces sane fractions.
	for _, f := range frac {
		if f < 0 || f > 1 {
			t.Fatalf("fraction %v out of range", f)
		}
	}
}

func TestReportTSV(t *testing.T) {
	tab := &metrics.Table{Title: "Figure X", XLabel: "x", YLabel: "y"}
	tab.Append("pairwise", 1, 2)
	tab.Append("pairwise", 2, 3)
	rep := &Report{Text: "preamble", Tables: []*metrics.Table{tab}}
	out := rep.TSV()
	for _, want := range []string{"preamble\n", "# Figure X", "pairwise"} {
		if !strings.Contains(out, want) {
			t.Fatalf("TSV missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.seed() != 1 {
		t.Fatalf("default seed = %d, want 1", o.seed())
	}
	o.progress("no sink, must not panic")
}

// tinyOpts shrink the quick world further so grid-machinery tests stay fast
// enough for -short -race.
func tinyCfg(opts Options) sim.Config {
	cfg := base(opts)
	cfg.NumPeers = 12
	cfg.Duration = 5_000
	cfg.StorageMinObjects = 4
	cfg.StorageMaxObjects = 8
	return cfg
}

// TestGridDeterministicAcrossParallelism is the runner integration contract
// at the experiment layer: the same grid emits identical tables at any
// worker count. It runs in short mode as the quick equivalent of the full
// figure sweeps.
func TestGridDeterministicAcrossParallelism(t *testing.T) {
	build := func(parallel int) (string, []string) {
		tab := &metrics.Table{Title: "grid", XLabel: "ul", YLabel: "frac"}
		var progress []string
		opts := Options{Seed: 1, Quick: true, Parallel: parallel}
		var pts []point
		for _, ul := range []float64{40, 30, 20} {
			cfg := tinyCfg(opts)
			cfg.UploadKbps = ul
			pts = append(pts, point{
				label: "grid",
				cfg:   cfg,
				emit: func(rs []*sim.Result) {
					appendAgg(tab, "frac", ul, rs, exchFraction)
					progress = append(progress, fmt.Sprintf("ul=%g frac=%.4f", ul, mean(rs, exchFraction)))
				},
			})
		}
		if err := runGrid(opts, pts); err != nil {
			t.Fatal(err)
		}
		return tab.TSV(), progress
	}
	seqTSV, seqProg := build(1)
	parTSV, parProg := build(8)
	if seqTSV != parTSV {
		t.Fatalf("tables diverge across parallelism:\n%s\nvs\n%s", seqTSV, parTSV)
	}
	if !slices.Equal(seqProg, parProg) {
		t.Fatalf("per-point summaries diverge:\n%v\nvs\n%v", seqProg, parProg)
	}
}

// TestGridReplication checks the mean ± 95% CI opt-in: replicated points
// emit the CI series, the mean lies inside the replica range, and a single
// replica reproduces the unreplicated table byte for byte.
func TestGridReplication(t *testing.T) {
	run := func(replicas int) *metrics.Table {
		tab := &metrics.Table{Title: "grid", XLabel: "ul", YLabel: "frac"}
		opts := Options{Seed: 1, Quick: true, Parallel: 4, Replicas: replicas}
		cfg := tinyCfg(opts)
		cfg.UploadKbps = 30
		pts := []point{{
			label: "grid",
			cfg:   cfg,
			emit: func(rs []*sim.Result) {
				if len(rs) != max(replicas, 1) {
					t.Fatalf("emit got %d replicas, want %d", len(rs), max(replicas, 1))
				}
				appendAgg(tab, "frac", 30, rs, exchFraction)
			},
		}}
		if err := runGrid(opts, pts); err != nil {
			t.Fatal(err)
		}
		return tab
	}

	plain := run(0)
	if plain.Get("frac ±95%") != nil {
		t.Fatal("unreplicated grid emitted a CI series")
	}
	rep := run(4)
	ci := rep.Get("frac ±95%")
	if ci == nil {
		t.Fatalf("replicated grid missing CI series; have %v", seriesNames(rep))
	}
	if ci.Points[0].Y < 0 {
		t.Fatalf("negative CI half-width %v", ci.Points[0].Y)
	}
	m := rep.Get("frac").Points[0].Y
	if math.IsNaN(m) || m < 0 || m > 1 {
		t.Fatalf("replica mean %v out of range", m)
	}
}
