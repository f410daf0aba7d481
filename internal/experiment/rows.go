package experiment

import (
	"fmt"
	"strings"

	"barter/internal/core"
	"barter/internal/metrics"
	"barter/internal/sim"
	"barter/internal/strategy"
	"barter/internal/workload"
)

// rows is every experiment in paper order: the Table II echo, Figures 4-12,
// the extensions beyond the paper (figw adversaries, figt temporal
// workloads) and the ablations. A row is its ID, caption, table header and
// grid; Experiment.run does the rest.
var rows = []Experiment{
	{
		ID:          "table2",
		Title:       "Basic simulation parameters (Table II)",
		Description: "Echoes the run configuration; calibrated entries are marked.",
		text:        table2,
	},
	{
		ID:          "fig4",
		Title:       "Mean download time vs. upload capacity (Figure 4)",
		Description: "Sweeps upload capacity under four policies; reports per-class mean download minutes.",
		table:       metrics.Table{Title: "Figure 4", XLabel: "upload capacity (kb/s)", YLabel: "mean download time (minutes)"},
		grid: func(b sim.Config, quick bool) []point {
			return cross(b, uploadSweep(quick), figurePolicies, func(cfg sim.Config, ul float64, pol core.Policy) point {
				cfg.UploadKbps, cfg.Policy = ul, pol
				return point{label: fmt.Sprintf("fig4 ul=%g %s", ul, pol), cfg: cfg, series: minutes(pol)}
			})
		},
	},
	{
		ID:          "fig5",
		Title:       "Fraction of exchange transfers vs. upload capacity (Figure 5)",
		Description: "Sweeps upload capacity under the three exchange policies; reports the exchange share of sessions.",
		table:       metrics.Table{Title: "Figure 5", XLabel: "upload capacity (kb/s)", YLabel: "fraction of sessions"},
		grid: func(b sim.Config, quick bool) []point {
			return cross(b, uploadSweep(quick), figurePolicies[:3], func(cfg sim.Config, ul float64, pol core.Policy) point {
				cfg.UploadKbps, cfg.Policy = ul, pol
				return point{label: fmt.Sprintf("fig5 ul=%g %s", ul, pol), cfg: cfg, series: []series{{pol.String(), exchFraction}}}
			})
		},
	},
	{
		ID:          "fig6",
		Title:       "Mean download time vs. maximum exchange ring size (Figure 6)",
		Description: "Sweeps the ring-size cap N for N-2-way and 2-N-way search orders.",
		table:       metrics.Table{Title: "Figure 6", XLabel: "maximum exchange ring size N", YLabel: "mean download time (minutes)"},
		grid:        fig6,
	},
	{
		ID:          "fig7",
		Title:       "CDF of data transferred per session, by traffic type (Figure 7)",
		Description: "One loaded run under 2-5-way; per-class session volume CDFs.",
		table:       metrics.Table{Title: "Figure 7", XLabel: "amount of data transferred per session (kB)", YLabel: "fraction of sessions"},
		grid:        loaded("fig7"),
		cdf:         func(r *sim.Result) *metrics.Grouped { return r.SessionVolumeKB },
	},
	{
		ID:          "fig8",
		Title:       "CDF of transfer waiting times, by traffic type (Figure 8)",
		Description: "One loaded run under 2-5-way; per-class request-to-start waiting-time CDFs.",
		table:       metrics.Table{Title: "Figure 8", XLabel: "waiting time (minutes)", YLabel: "fraction of sessions"},
		grid:        loaded("fig8"),
		cdf:         func(r *sim.Result) *metrics.Grouped { return r.WaitingTimeMin },
	},
	{
		ID:          "fig9",
		Title:       "Mean download time vs. object popularity factor (Figure 9)",
		Description: "Sweeps the popularity factor f (categories and objects) under four policies.",
		table:       metrics.Table{Title: "Figure 9", XLabel: "object popularity factor f", YLabel: "mean download time (minutes)"},
		grid:        popularity("fig9", minutes),
	},
	{
		ID:          "fig10",
		Title:       "Transfer volume (MB) vs. object popularity factor (Figure 10)",
		Description: "Same sweep as Figure 9; reports mean megabytes received per peer of each class.",
		table:       metrics.Table{Title: "Figure 10", XLabel: "object popularity factor f", YLabel: "transfer volume (MB)"},
		grid: popularity("fig10", func(pol core.Policy) []series {
			return classSeries(pol, (*sim.Result).VolumePerPeerMB, func(r *sim.Result) float64 {
				return (r.VolumePerPeerMB(true) + r.VolumePerPeerMB(false)) / 2
			})
		}),
	},
	{
		ID:          "fig11",
		Title:       "Sharing vs. non-sharing speedup vs. max outstanding requests (Figure 11)",
		Description: "Sweeps MaxPending x categories-per-peer under 2-5-way; reports the download-time ratio.",
		table:       metrics.Table{Title: "Figure 11", XLabel: "max. outstanding requests per peer", YLabel: "speedup: mean download time, sharing vs. non-sharing"},
		grid: func(b sim.Config, quick bool) []point {
			b.UploadKbps, b.Policy = 40, core.Policy2N
			pendings := sizes(quick, []float64{2, 4, 6, 8, 10}, []float64{2, 6, 10})
			return cross(b, pendings, []int{2, 4, 8}, func(cfg sim.Config, pending float64, cats int) point {
				cfg.MaxPending = int(pending)
				cfg.Catalog.CategoriesPerPeerMin, cfg.Catalog.CategoriesPerPeerMax = cats, cats
				return point{label: fmt.Sprintf("fig11 pending=%g cats=%d", pending, cats), cfg: cfg,
					series: []series{{fmt.Sprintf("cat/peer=%d", cats), speedup}}}
			})
		},
	},
	{
		ID:          "fig12",
		Title:       "Mean download time vs. fraction of non-sharing peers (Figure 12)",
		Description: "Sweeps the free-rider fraction under four policies.",
		table:       metrics.Table{Title: "Figure 12", XLabel: "fraction of non-sharing peers", YLabel: "mean download time (minutes)"},
		grid: func(b sim.Config, quick bool) []point {
			b.UploadKbps = 40
			fracs := sizes(quick, []float64{0.1, 0.3, 0.5, 0.7, 0.9}, []float64{0.2, 0.5, 0.8})
			return cross(b, fracs, figurePolicies, func(cfg sim.Config, frac float64, pol core.Policy) point {
				cfg.Mix, cfg.Policy = strategy.LegacyMix(frac), pol
				return point{label: fmt.Sprintf("fig12 frac=%g %s", frac, pol), cfg: cfg, series: minutes(pol)}
			})
		},
	},
	{
		// Beyond Figure 12's static free-rider: adaptive free-riders,
		// whitewashers and partial sharers, each beside an equal static
		// free-rider control, under exchange priority and the honest KaZaA
		// level — which decays for leeches and is what whitewashing launders.
		ID:          "figw",
		Title:       "Mean download time vs. adversary fraction: exchange vs. credit ranking (Figure W)",
		Description: "Sweeps adaptive free-riders, whitewashers, and partial sharers (with a static free-rider control) under exchange priority and a credit ranking.",
		table:       metrics.Table{Title: "Figure W", XLabel: "fraction of adversarial peers", YLabel: "mean download time (minutes)"},
		grid:        figw,
	},
	{
		// FigT asks the incentive question under time-varying demand instead
		// of the paper's steady closed loop: does exchange priority keep its
		// sharing-class advantage through a flash crowd or a diurnal cycle?
		ID:          "figt",
		Title:       "Sharing-class speedup under temporal demand shapes (workload layer)",
		Description: "Crosses the builtin workload specs (constant, diurnal, flash) with exchange and credit-ranking mechanisms; reports sharing vs. non-sharing speedup.",
		table: metrics.Table{Title: "Figure T: temporal workloads", XLabel: "demand shape (0=constant, 1=diurnal, 2=flash)",
			YLabel: "speedup: mean download time, sharing vs. non-sharing"},
		grid: func(b sim.Config, _ bool) []point {
			b.UploadKbps = 40 // the loaded regime, as in the other incentive figures
			shapes := []string{"constant", "diurnal", "flash"}
			return cross(b, []float64{0, 1, 2}, []mechanism{exchange, fifo, emule}, func(cfg sim.Config, x float64, m mechanism) point {
				spec, ok := workload.Builtin(shapes[int(x)])
				if !ok {
					panic("experiment: builtin workload " + shapes[int(x)] + " missing")
				}
				cfg.Workload = spec
				return point{label: fmt.Sprintf("figt shape=%s %s", spec.Name, m.name), cfg: cfg, mech: &m, series: []series{{m.name, speedup}}}
			})
		},
	},
	{
		// Quantifies the contribution of reclaiming non-exchange slots, a
		// design choice the paper's mechanism mandates.
		ID:          "ablation-preemption",
		Title:       "Ablation: preempting non-exchange transfers for new exchanges",
		Description: "Compares sharing speedup with and without slot reclamation.",
		table:       metrics.Table{Title: "Ablation: preemption", XLabel: "upload capacity (kb/s)", YLabel: "speedup sharing vs non-sharing"},
		grid: func(b sim.Config, quick bool) []point {
			b.Policy = core.Policy2N
			uls := sizes(quick, []float64{80, 40}, []float64{40, 20})
			return cross(b, uls, []string{"with preemption", "without preemption"}, func(cfg sim.Config, ul float64, name string) point {
				cfg.UploadKbps, cfg.DisablePreemption = ul, name == "without preemption"
				return point{label: fmt.Sprintf("ablation-preemption ul=%g %s", ul, name), cfg: cfg, series: []series{{name, speedup}}}
			})
		},
	},
	{
		// The paper argues credits provide weak incentives and self-reports
		// provide none; this row quantifies both claims in one workload.
		ID:          "ablation-credit",
		Title:       "Ablation: exchange priority vs. credit-based baselines",
		Description: "Sharing speedup under exchange, FIFO, eMule credit, and (cheated) KaZaA levels.",
		table:       metrics.Table{Title: "Ablation: incentive mechanisms", XLabel: "upload capacity (kb/s)", YLabel: "speedup sharing vs non-sharing"},
		grid: func(b sim.Config, quick bool) []point {
			uls := sizes(quick, []float64{80, 40}, []float64{40, 20})
			return cross(b, uls, []mechanism{exchange, fifo, emule, kazaaCheated}, func(cfg sim.Config, ul float64, m mechanism) point {
				cfg.UploadKbps = ul
				return point{label: fmt.Sprintf("ablation-credit ul=%g %s", ul, m.name), cfg: cfg, mech: &m, series: []series{{m.name, speedup}}}
			})
		},
	},
	{
		// The ring-search cost/benefit trade-off of Section V: how much
		// exchange density survives when peers bound their search effort.
		ID:          "ablation-search",
		Title:       "Ablation: bounded ring-search effort",
		Description: "Exchange fraction and speedup as the per-search node budget shrinks.",
		table:       metrics.Table{Title: "Ablation: search budget", XLabel: "search budget (nodes)", YLabel: "value"},
		grid: func(b sim.Config, quick bool) []point {
			b.UploadKbps, b.Policy = 40, core.Policy2N
			var pts []point
			for _, budget := range sizes(quick, []int{16, 64, 512, 4096}, []int{16, 512}) {
				cfg := b
				cfg.SearchBudget = budget
				pts = append(pts, point{label: fmt.Sprintf("ablation-search budget=%d", budget), x: float64(budget), cfg: cfg,
					series: []series{{"exchange fraction", exchFraction}, {"speedup", speedup}}})
			}
			return pts
		},
	},
}

// figurePolicies are the four configurations of Figures 4, 5 (the first
// three), 9, 10 and 12.
var figurePolicies = []core.Policy{
	core.PolicyPairwise,
	core.PolicyN2, // 5-2-way
	core.Policy2N, // 2-5-way
	core.PolicyNoExchange,
}

// cross builds one point per (x, v) pair, x outer: at configures a copy of
// base for the pair and cross stamps the point's x.
func cross[V any](base sim.Config, xs []float64, vs []V, at func(cfg sim.Config, x float64, v V) point) []point {
	pts := make([]point, 0, len(xs)*len(vs))
	for _, x := range xs {
		for _, v := range vs {
			p := at(base, x, v)
			p.x = x
			pts = append(pts, p)
		}
	}
	return pts
}

// uploadSweep is the swept upload capacities, highest first as on the
// paper's reversed x-axis.
func uploadSweep(quick bool) []float64 {
	return sizes(quick, []float64{140, 120, 100, 80, 60, 40}, []float64{80, 60, 40, 20})
}

// sizes picks the paper-scale or the quick sweep.
func sizes[T any](quick bool, full, small T) T {
	if quick {
		return small
	}
	return full
}

// minutes is the per-class mean download time series of a policy.
func minutes(pol core.Policy) []series {
	return classSeries(pol, (*sim.Result).MeanDownloadMin, allMin)
}

// loaded is the single loaded 2-5-way run of the distributional figures.
func loaded(label string) func(sim.Config, bool) []point {
	return func(cfg sim.Config, _ bool) []point {
		cfg.UploadKbps, cfg.Policy = 40, core.Policy2N
		return []point{{label: label, cfg: cfg}}
	}
}

// popularity sweeps the category and object popularity factor f under the
// four figure policies in the loaded regime (Figures 9, 10).
func popularity(id string, ser func(core.Policy) []series) func(sim.Config, bool) []point {
	return func(b sim.Config, quick bool) []point {
		b.UploadKbps = 40
		fs := sizes(quick, []float64{0, 0.2, 0.4, 0.6, 0.8, 1}, []float64{0, 0.5, 1})
		return cross(b, fs, figurePolicies, func(cfg sim.Config, f float64, pol core.Policy) point {
			cfg.Catalog.CategoryFactor, cfg.Catalog.ObjectFactor, cfg.Policy = f, f, pol
			return point{label: fmt.Sprintf("%s f=%g %s", id, f, pol), cfg: cfg, series: ser(pol)}
		})
	}
}

// fig6 sweeps the ring-size cap N in the loaded regime, where ring size
// matters. The paper plots both search orders as N-2-way and 2-N-way
// series; N=1 (no exchange) and N=2 (pairwise) are endpoints both share.
func fig6(b sim.Config, quick bool) []point {
	b.UploadKbps = 40
	at := func(n int, pol core.Policy, orders ...string) point {
		cfg := b
		cfg.Policy = pol
		var ss []series
		for _, o := range orders {
			ss = append(ss, sides(o, (*sim.Result).MeanDownloadMin)...)
		}
		return point{label: fmt.Sprintf("fig6 N=%d %s", n, pol), x: float64(n), cfg: cfg, series: ss}
	}
	pts := []point{at(1, core.PolicyNoExchange, "N-2-way", "2-N-way"), at(2, core.PolicyPairwise, "N-2-way", "2-N-way")}
	for n := 3; n <= sizes(quick, 7, 5); n++ {
		pts = append(pts,
			at(n, core.Policy{Kind: core.LongFirst, MaxRing: n}, "N-2-way"),
			at(n, core.Policy{Kind: core.ShortFirst, MaxRing: n}, "2-N-way"))
	}
	return pts
}

// figw crosses the adversary fraction with each adversary class and two
// mechanisms, labelled by the first word of their names: "exchange" and
// "credit".
func figw(b sim.Config, quick bool) []point {
	b.UploadKbps = 40 // the loaded regime, where incentives bite
	var pts []point
	for _, frac := range sizes(quick, []float64{0.1, 0.2, 0.3}, []float64{0.15, 0.3}) {
		for _, adv := range []strategy.Strategy{strategy.AdaptiveFreerider(), strategy.Whitewasher(), strategy.PartialSharer()} {
			for _, m := range []mechanism{exchange, kazaa} {
				tag, _, _ := strings.Cut(m.name, " ")
				cfg := b
				cfg.Mix = strategy.Mix{
					{Strategy: adv, Frac: frac},
					{Strategy: strategy.NonSharing(), Frac: frac},
					{Strategy: strategy.Sharing(), Frac: 1 - 2*frac},
				}
				var ss []series
				for _, class := range []string{strategy.LabelSharing, strategy.LabelNonSharing, adv.Name} {
					f := func(r *sim.Result) float64 { return r.ClassMeanDownloadMin(class) }
					ss = append(ss, series{tag + ":" + adv.Name + "/" + class, f})
				}
				pts = append(pts, point{label: fmt.Sprintf("figw frac=%g %s %s", frac, tag, adv.Name), x: frac, cfg: cfg, mech: &m, series: ss})
			}
		}
	}
	return pts
}

// table2 echoes the simulation parameters in the layout of the paper's
// Table II, annotating the calibrated entries.
func table2(cfg sim.Config) string {
	freeloaders := 0.0
	for _, c := range cfg.EffectiveMix() {
		if !c.Share {
			freeloaders += c.Frac
		}
	}
	var b strings.Builder
	b.WriteString("# Table II: basic simulation parameters\n")
	for _, r := range [][2]string{
		{"number of peers", fmt.Sprintf("%d", cfg.NumPeers)},
		{"download capacity", fmt.Sprintf("%g kbit/s", cfg.DownloadKbps)},
		{"upload capacity", fmt.Sprintf("%g kbit/s", cfg.UploadKbps)},
		{"ul/dl slot size", fmt.Sprintf("%g kbit/s", cfg.SlotKbps)},
		{"content categories", fmt.Sprintf("%d (paper: 300; availability calibration)", cfg.Catalog.Categories)},
		{"objects per category", fmt.Sprintf("uniform(%d,%d) (paper: uniform(1,300); availability calibration)",
			cfg.Catalog.ObjectsPerCategoryMin, cfg.Catalog.ObjectsPerCategoryMax)},
		{"categories/peer", fmt.Sprintf("uniform(%d,%d)", cfg.Catalog.CategoriesPerPeerMin, cfg.Catalog.CategoriesPerPeerMax)},
		{"category popularity", fmt.Sprintf("f=%g", cfg.Catalog.CategoryFactor)},
		{"object popularity", fmt.Sprintf("f=%g", cfg.Catalog.ObjectFactor)},
		{"object size", fmt.Sprintf("%g MB (all objects)", cfg.ObjectKbits/8000)},
		{"storage capacity per peer", fmt.Sprintf("uniform(%d,%d) objects", cfg.StorageMinObjects, cfg.StorageMaxObjects)},
		{"queue for incoming requests", fmt.Sprintf("%d", cfg.IRQCapacity)},
		{"max pending objects", fmt.Sprintf("%d", cfg.MaxPending)},
		{"fraction of freeloaders", fmt.Sprintf("%g%%", freeloaders*100)},
	} {
		fmt.Fprintf(&b, "%s\t%s\n", r[0], r[1])
	}
	return b.String()
}
