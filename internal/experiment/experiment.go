// Package experiment defines one runnable specification per table and figure
// of the paper's evaluation (Section IV), plus the ablations called out in
// DESIGN.md. Each experiment reproduces the corresponding figure's series;
// absolute values depend on the simulated substrate, but orderings, ratios,
// and crossovers are expected to match the paper (see EXPERIMENTS.md).
//
// Every experiment enumerates its parameter grid declaratively as a slice of
// points and hands the slice to internal/runner, which fans the independent
// simulation runs out over a worker pool (Options.Parallel) and optionally
// replicates each point over several derived seeds (Options.Replicas).
// Results are recorded in submission order, so the emitted tables are
// byte-identical at any parallelism; with replication on, swept figures gain
// mean +/- 95% CI columns.
package experiment

import (
	"fmt"
	"sort"
	"strings"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/metrics"
	"barter/internal/runner"
	"barter/internal/sim"
)

// Options tunes one experiment invocation.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed uint64
	// Quick runs the scaled-down world (30 peers, 0.5 MB objects): seconds
	// instead of minutes of wall time, same shapes. Benchmarks use it.
	Quick bool
	// Parallel bounds the worker pool running grid points; <= 0 means one
	// worker per CPU. The emitted tables are identical at any setting.
	Parallel int
	// Replicas runs every grid point this many times under distinct derived
	// seeds (<= 0 means 1) and aggregates swept series to mean +/- 95% CI.
	// Distributional figures (7, 8) ignore it and run their single point
	// once: a CDF has no cross-seed mean.
	Replicas int
	// Progress, when non-nil, receives one line per completed run (emitted
	// as runs finish, so ordering varies with Parallel) and one deterministic
	// per-point summary line once the grid completes.
	Progress func(msg string)
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(fmt.Sprintf(format, args...))
	}
}

// Report is the output of one experiment: the figure's data tables and an
// optional free-text section.
type Report struct {
	Tables []*metrics.Table
	Text   string
}

// TSV renders the whole report as tab-separated text.
func (r *Report) TSV() string {
	var b strings.Builder
	if r.Text != "" {
		b.WriteString(r.Text)
		if !strings.HasSuffix(r.Text, "\n") {
			b.WriteByte('\n')
		}
	}
	for i, t := range r.Tables {
		if i > 0 || r.Text != "" {
			b.WriteByte('\n')
		}
		b.WriteString(t.TSV())
	}
	return b.String()
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the artifact key ("fig4" ... "fig12", "table2", "ablation-*").
	ID string
	// Title matches the paper's caption.
	Title string
	// Description says what is swept and what is reported.
	Description string
	// Run executes the experiment.
	Run func(opts Options) (*Report, error)
}

// FullBase returns the paper-scale configuration: Table II parameters with
// the documented availability calibration (50 categories of up to 100
// objects instead of 300 categories of up to 300). With the literal Table II
// catalog, 200 peers place ~4,400 object copies across ~45,000 objects; our
// conservative lookup and no-partial-serving assumptions then starve the
// system of exchange opportunities that the paper's simulator evidently had.
// The calibrated catalog restores the paper's operating regime (exchange
// fractions 0.3-0.6 and sharing speedups near 2x under load) without
// touching any mechanism parameter. See DESIGN.md and EXPERIMENTS.md.
func FullBase() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Catalog.Categories = 50
	cfg.Catalog.ObjectsPerCategoryMax = 100
	return cfg
}

// QuickBase returns the scaled-down world used by tests and benchmarks: 30
// peers, 0.5 MB objects, a few simulated hours.
func QuickBase() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.NumPeers = 30
	cfg.Catalog = catalog.Config{
		Categories:            10,
		ObjectsPerCategoryMin: 4,
		ObjectsPerCategoryMax: 20,
		CategoryFactor:        0.2,
		ObjectFactor:          0.2,
		CategoriesPerPeerMin:  2,
		CategoriesPerPeerMax:  6,
	}
	cfg.ObjectKbits = 4000
	cfg.BlockKbits = 250
	cfg.StorageMinObjects = 8
	cfg.StorageMaxObjects = 20
	cfg.MaxPending = 6
	cfg.Duration = 30_000
	cfg.EvictionInterval = 600
	cfg.RetryInterval = 120
	return cfg
}

func base(opts Options) sim.Config {
	var cfg sim.Config
	if opts.Quick {
		cfg = QuickBase()
	} else {
		cfg = FullBase()
	}
	cfg.Seed = opts.seed()
	return cfg
}

// uploadSweep returns the swept upload capacities, highest first as in the
// paper's reversed x-axis.
func uploadSweep(quick bool) []float64 {
	if quick {
		return []float64{80, 60, 40, 20}
	}
	return []float64{140, 120, 100, 80, 60, 40}
}

func popularitySweep(quick bool) []float64 {
	if quick {
		return []float64{0, 0.5, 1}
	}
	return []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
}

// figurePolicies are the four configurations of Figures 4, 5, 9, 10, 12.
func figurePolicies() []core.Policy {
	return []core.Policy{
		core.PolicyPairwise,
		core.PolicyN2, // 5-2-way
		core.Policy2N, // 2-5-way
		core.PolicyNoExchange,
	}
}

// point is one declarative grid entry: a labelled configuration plus the
// callback that records its replicated results into the figure's table.
type point struct {
	label    string
	cfg      sim.Config
	finalize func(sim.Config) sim.Config
	emit     func(rs []*sim.Result)
}

// runGrid executes the points through the parallel runner and then invokes
// every emit callback in submission order, so tables and the per-point
// progress lines are reproduced deterministically at any parallelism.
func runGrid(opts Options, points []point) error {
	jobs := make([]runner.Job, len(points))
	for i, p := range points {
		jobs[i] = runner.Job{Config: p.cfg, Label: p.label, Finalize: p.finalize}
	}
	results, err := runner.Run(jobs, runner.Options{
		Parallel: opts.Parallel,
		Replicas: opts.Replicas,
		Progress: opts.Progress,
	})
	if err != nil {
		return err
	}
	for i, p := range points {
		p.emit(results[i].Replicas)
	}
	return nil
}

// Per-replica value extractors for the swept figures.
func sharingMin(r *sim.Result) float64    { return r.MeanDownloadMin(true) }
func nonSharingMin(r *sim.Result) float64 { return r.MeanDownloadMin(false) }
func allMin(r *sim.Result) float64        { return r.MeanDownloadMinAll() }
func exchFraction(r *sim.Result) float64  { return r.ExchangeFraction }
func speedup(r *sim.Result) float64       { return r.SpeedupSharingVsNonSharing() }

// vals extracts f over every replica.
func vals(rs []*sim.Result, f func(*sim.Result) float64) []float64 {
	ys := make([]float64, len(rs))
	for i, r := range rs {
		ys[i] = f(r)
	}
	return ys
}

// mean returns the replica mean of f (the plain value with one replica).
func mean(rs []*sim.Result, f func(*sim.Result) float64) float64 {
	m, _ := metrics.MeanCI95(vals(rs, f))
	return m
}

// appendAgg appends the replica mean of f under name. With replication on it
// also appends a "name ±95%" series carrying the confidence half-width; with
// a single replica the emitted table is exactly the unreplicated one.
func appendAgg(t *metrics.Table, name string, x float64, rs []*sim.Result, f func(*sim.Result) float64) {
	ys := vals(rs, f)
	if len(ys) == 1 {
		t.Append(name, x, ys[0])
		return
	}
	m, half := metrics.MeanCI95(ys)
	t.Append(name, x, m)
	t.Append(name+" ±95%", x, half)
}

// appendClassSeries adds the "<policy>/sharing" and "<policy>/non-sharing"
// points for one grid point, or the single "no exchange" point for the
// baseline.
func appendClassSeries(t *metrics.Table, pol core.Policy, x float64, rs []*sim.Result) {
	if pol.Kind == core.NoExchange {
		appendAgg(t, "no exchange", x, rs, allMin)
		return
	}
	appendAgg(t, pol.String()+"/sharing", x, rs, sharingMin)
	appendAgg(t, pol.String()+"/non-sharing", x, rs, nonSharingMin)
}

// All returns every experiment in paper order.
func All() []*Experiment {
	return []*Experiment{
		Table2(),
		Fig4(),
		Fig5(),
		Fig6(),
		Fig7(),
		Fig8(),
		Fig9(),
		Fig10(),
		Fig11(),
		Fig12(),
		FigW(),
		FigT(),
		AblationPreemption(),
		AblationCredit(),
		AblationSearch(),
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (*Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return nil, false
}

// Table2 echoes the simulation parameters in the layout of the paper's
// Table II, annotating the calibrated entries.
func Table2() *Experiment {
	return &Experiment{
		ID:          "table2",
		Title:       "Basic simulation parameters (Table II)",
		Description: "Echoes the run configuration; calibrated entries are marked.",
		Run: func(opts Options) (*Report, error) {
			cfg := base(opts)
			var b strings.Builder
			rows := []struct{ k, v string }{
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
				{"fraction of freeloaders", fmt.Sprintf("%g%%", cfg.FreeriderFrac*100)},
			}
			b.WriteString("# Table II: basic simulation parameters\n")
			for _, r := range rows {
				fmt.Fprintf(&b, "%s\t%s\n", r.k, r.v)
			}
			return &Report{Text: b.String()}, nil
		},
	}
}

// Fig4 reproduces "Mean download time vs. upload capacity".
func Fig4() *Experiment {
	return &Experiment{
		ID:          "fig4",
		Title:       "Mean download time vs. upload capacity (Figure 4)",
		Description: "Sweeps upload capacity under four policies; reports per-class mean download minutes.",
		Run: func(opts Options) (*Report, error) {
			t := &metrics.Table{Title: "Figure 4", XLabel: "upload capacity (kb/s)", YLabel: "mean download time (minutes)"}
			var pts []point
			for _, ul := range uploadSweep(opts.Quick) {
				for _, pol := range figurePolicies() {
					cfg := base(opts)
					cfg.UploadKbps = ul
					cfg.Policy = pol
					pts = append(pts, point{
						label: fmt.Sprintf("fig4 ul=%g %s", ul, pol),
						cfg:   cfg,
						emit: func(rs []*sim.Result) {
							appendClassSeries(t, pol, ul, rs)
							opts.progress("fig4 ul=%g %s: sharing %.1f non %.1f",
								ul, pol, mean(rs, sharingMin), mean(rs, nonSharingMin))
						},
					})
				}
			}
			if err := runGrid(opts, pts); err != nil {
				return nil, err
			}
			return &Report{Tables: []*metrics.Table{t}}, nil
		},
	}
}

// Fig5 reproduces "Fraction of exchange transfers vs. upload capacity".
func Fig5() *Experiment {
	return &Experiment{
		ID:          "fig5",
		Title:       "Fraction of exchange transfers vs. upload capacity (Figure 5)",
		Description: "Sweeps upload capacity under the three exchange policies; reports the exchange share of sessions.",
		Run: func(opts Options) (*Report, error) {
			t := &metrics.Table{Title: "Figure 5", XLabel: "upload capacity (kb/s)", YLabel: "fraction of sessions"}
			pols := []core.Policy{core.PolicyPairwise, core.PolicyN2, core.Policy2N}
			var pts []point
			for _, ul := range uploadSweep(opts.Quick) {
				for _, pol := range pols {
					cfg := base(opts)
					cfg.UploadKbps = ul
					cfg.Policy = pol
					pts = append(pts, point{
						label: fmt.Sprintf("fig5 ul=%g %s", ul, pol),
						cfg:   cfg,
						emit: func(rs []*sim.Result) {
							appendAgg(t, pol.String(), ul, rs, exchFraction)
							opts.progress("fig5 ul=%g %s: fraction %.3f", ul, pol, mean(rs, exchFraction))
						},
					})
				}
			}
			if err := runGrid(opts, pts); err != nil {
				return nil, err
			}
			return &Report{Tables: []*metrics.Table{t}}, nil
		},
	}
}

// Fig6 reproduces "Mean download times vs. maximum exchange ring size N".
func Fig6() *Experiment {
	return &Experiment{
		ID:          "fig6",
		Title:       "Mean download time vs. maximum exchange ring size (Figure 6)",
		Description: "Sweeps the ring-size cap N for N-2-way and 2-N-way search orders.",
		Run: func(opts Options) (*Report, error) {
			t := &metrics.Table{Title: "Figure 6", XLabel: "maximum exchange ring size N", YLabel: "mean download time (minutes)"}
			maxN := 7
			if opts.Quick {
				maxN = 5
			}
			var pts []point
			for n := 1; n <= maxN; n++ {
				pols := []core.Policy{}
				switch n {
				case 1:
					pols = append(pols, core.PolicyNoExchange)
				case 2:
					pols = append(pols, core.PolicyPairwise)
				default:
					pols = append(pols,
						core.Policy{Kind: core.LongFirst, MaxRing: n},
						core.Policy{Kind: core.ShortFirst, MaxRing: n})
				}
				for _, pol := range pols {
					cfg := base(opts)
					cfg.UploadKbps = 40 // the loaded regime, where ring size matters
					cfg.Policy = pol
					pts = append(pts, point{
						label: fmt.Sprintf("fig6 N=%d %s", n, pol),
						cfg:   cfg,
						emit: func(rs []*sim.Result) {
							// The paper plots both search orders as N-2-way and
							// 2-N-way series; N=1 and N=2 are shared endpoints.
							names := [][2]string{{"N-2-way/sharing", "N-2-way/non-sharing"}, {"2-N-way/sharing", "2-N-way/non-sharing"}}
							var which [][2]string
							switch pol.Kind {
							case core.NoExchange, core.PairwiseOnly:
								which = names
							case core.LongFirst:
								which = names[:1]
							case core.ShortFirst:
								which = names[1:]
							}
							for _, pair := range which {
								appendAgg(t, pair[0], float64(n), rs, sharingMin)
								appendAgg(t, pair[1], float64(n), rs, nonSharingMin)
							}
							opts.progress("fig6 N=%d %s: sharing %.1f non %.1f",
								n, pol, mean(rs, sharingMin), mean(rs, nonSharingMin))
						},
					})
				}
			}
			if err := runGrid(opts, pts); err != nil {
				return nil, err
			}
			return &Report{Tables: []*metrics.Table{t}}, nil
		},
	}
}

// cdfTable builds the per-class CDF table for Figures 7 and 8.
func cdfTable(title, xlabel string, g *metrics.Grouped, points int) *metrics.Table {
	t := &metrics.Table{Title: title, XLabel: xlabel, YLabel: "fraction of sessions"}
	keys := g.Keys()
	sort.Strings(keys)
	for _, key := range keys {
		s := g.Get(key)
		for _, pt := range s.CDF(points) {
			t.Append(key, pt.V, pt.F)
		}
	}
	return t
}

// Fig7 reproduces "CDF for transfer bytes per traffic type".
func Fig7() *Experiment {
	return &Experiment{
		ID:          "fig7",
		Title:       "CDF of data transferred per session, by traffic type (Figure 7)",
		Description: "One loaded run under 2-5-way; per-class session volume CDFs.",
		Run: func(opts Options) (*Report, error) {
			opts.Replicas = 1 // distributional figure: one run, no aggregation
			var t *metrics.Table
			cfg := base(opts)
			cfg.UploadKbps = 40
			cfg.Policy = core.Policy2N
			pts := []point{{
				label: "fig7",
				cfg:   cfg,
				emit: func(rs []*sim.Result) {
					t = cdfTable("Figure 7", "amount of data transferred per session (kB)", rs[0].SessionVolumeKB, 25)
					opts.progress("fig7: %d session classes", len(t.Series))
				},
			}}
			if err := runGrid(opts, pts); err != nil {
				return nil, err
			}
			return &Report{Tables: []*metrics.Table{t}}, nil
		},
	}
}

// Fig8 reproduces "CDF for transfer starting times per traffic type".
func Fig8() *Experiment {
	return &Experiment{
		ID:          "fig8",
		Title:       "CDF of transfer waiting times, by traffic type (Figure 8)",
		Description: "One loaded run under 2-5-way; per-class request-to-start waiting-time CDFs.",
		Run: func(opts Options) (*Report, error) {
			opts.Replicas = 1 // distributional figure: one run, no aggregation
			var t *metrics.Table
			cfg := base(opts)
			cfg.UploadKbps = 40
			cfg.Policy = core.Policy2N
			pts := []point{{
				label: "fig8",
				cfg:   cfg,
				emit: func(rs []*sim.Result) {
					t = cdfTable("Figure 8", "waiting time (minutes)", rs[0].WaitingTimeMin, 25)
					opts.progress("fig8: %d session classes", len(t.Series))
				},
			}}
			if err := runGrid(opts, pts); err != nil {
				return nil, err
			}
			return &Report{Tables: []*metrics.Table{t}}, nil
		},
	}
}

// Fig9 reproduces "Mean download time vs. object popularity factor".
func Fig9() *Experiment {
	return &Experiment{
		ID:          "fig9",
		Title:       "Mean download time vs. object popularity factor (Figure 9)",
		Description: "Sweeps the popularity factor f (categories and objects) under four policies.",
		Run: func(opts Options) (*Report, error) {
			t := &metrics.Table{Title: "Figure 9", XLabel: "object popularity factor f", YLabel: "mean download time (minutes)"}
			var pts []point
			for _, f := range popularitySweep(opts.Quick) {
				for _, pol := range figurePolicies() {
					cfg := base(opts)
					cfg.UploadKbps = 40
					cfg.Catalog.CategoryFactor = f
					cfg.Catalog.ObjectFactor = f
					cfg.Policy = pol
					pts = append(pts, point{
						label: fmt.Sprintf("fig9 f=%g %s", f, pol),
						cfg:   cfg,
						emit: func(rs []*sim.Result) {
							appendClassSeries(t, pol, f, rs)
							opts.progress("fig9 f=%g %s: sharing %.1f non %.1f",
								f, pol, mean(rs, sharingMin), mean(rs, nonSharingMin))
						},
					})
				}
			}
			if err := runGrid(opts, pts); err != nil {
				return nil, err
			}
			return &Report{Tables: []*metrics.Table{t}}, nil
		},
	}
}

// Fig10 reproduces "Transfer volume vs. object popularity factor".
func Fig10() *Experiment {
	return &Experiment{
		ID:          "fig10",
		Title:       "Transfer volume (MB) vs. object popularity factor (Figure 10)",
		Description: "Same sweep as Figure 9; reports mean megabytes received per peer of each class.",
		Run: func(opts Options) (*Report, error) {
			t := &metrics.Table{Title: "Figure 10", XLabel: "object popularity factor f", YLabel: "transfer volume (MB)"}
			sharingMB := func(r *sim.Result) float64 { return r.VolumePerPeerMB(true) }
			nonSharingMB := func(r *sim.Result) float64 { return r.VolumePerPeerMB(false) }
			allMB := func(r *sim.Result) float64 {
				return (r.VolumePerPeerMB(true) + r.VolumePerPeerMB(false)) / 2
			}
			var pts []point
			for _, f := range popularitySweep(opts.Quick) {
				for _, pol := range figurePolicies() {
					cfg := base(opts)
					cfg.UploadKbps = 40
					cfg.Catalog.CategoryFactor = f
					cfg.Catalog.ObjectFactor = f
					cfg.Policy = pol
					pts = append(pts, point{
						label: fmt.Sprintf("fig10 f=%g %s", f, pol),
						cfg:   cfg,
						emit: func(rs []*sim.Result) {
							if pol.Kind == core.NoExchange {
								appendAgg(t, "no exchange", f, rs, allMB)
							} else {
								appendAgg(t, pol.String()+"/sharing", f, rs, sharingMB)
								appendAgg(t, pol.String()+"/non-sharing", f, rs, nonSharingMB)
							}
							opts.progress("fig10 f=%g %s: sharing %.0f MB non %.0f MB",
								f, pol, mean(rs, sharingMB), mean(rs, nonSharingMB))
						},
					})
				}
			}
			if err := runGrid(opts, pts); err != nil {
				return nil, err
			}
			return &Report{Tables: []*metrics.Table{t}}, nil
		},
	}
}

// Fig11 reproduces "Ratio of mean download times for different maximum
// pending request sizes and number of categories per peer".
func Fig11() *Experiment {
	return &Experiment{
		ID:          "fig11",
		Title:       "Sharing vs. non-sharing speedup vs. max outstanding requests (Figure 11)",
		Description: "Sweeps MaxPending x categories-per-peer under 2-5-way; reports the download-time ratio.",
		Run: func(opts Options) (*Report, error) {
			t := &metrics.Table{Title: "Figure 11", XLabel: "max. outstanding requests per peer", YLabel: "speedup: mean download time, sharing vs. non-sharing"}
			pendings := []int{2, 4, 6, 8, 10}
			if opts.Quick {
				pendings = []int{2, 6, 10}
			}
			var pts []point
			for _, pending := range pendings {
				for _, cats := range []int{2, 4, 8} {
					cfg := base(opts)
					cfg.UploadKbps = 40
					cfg.MaxPending = pending
					cfg.Catalog.CategoriesPerPeerMin = cats
					cfg.Catalog.CategoriesPerPeerMax = cats
					cfg.Policy = core.Policy2N
					pts = append(pts, point{
						label: fmt.Sprintf("fig11 pending=%d cats=%d", pending, cats),
						cfg:   cfg,
						emit: func(rs []*sim.Result) {
							appendAgg(t, fmt.Sprintf("cat/peer=%d", cats), float64(pending), rs, speedup)
							opts.progress("fig11 pending=%d cats=%d: speedup %.2f",
								pending, cats, mean(rs, speedup))
						},
					})
				}
			}
			if err := runGrid(opts, pts); err != nil {
				return nil, err
			}
			return &Report{Tables: []*metrics.Table{t}}, nil
		},
	}
}

// Fig12 reproduces "Mean download times vs. fraction of non-sharing peers".
func Fig12() *Experiment {
	return &Experiment{
		ID:          "fig12",
		Title:       "Mean download time vs. fraction of non-sharing peers (Figure 12)",
		Description: "Sweeps the free-rider fraction under four policies.",
		Run: func(opts Options) (*Report, error) {
			t := &metrics.Table{Title: "Figure 12", XLabel: "fraction of non-sharing peers", YLabel: "mean download time (minutes)"}
			fracs := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
			if opts.Quick {
				fracs = []float64{0.2, 0.5, 0.8}
			}
			var pts []point
			for _, frac := range fracs {
				for _, pol := range figurePolicies() {
					cfg := base(opts)
					cfg.UploadKbps = 40
					cfg.FreeriderFrac = frac
					cfg.Policy = pol
					pts = append(pts, point{
						label: fmt.Sprintf("fig12 frac=%g %s", frac, pol),
						cfg:   cfg,
						emit: func(rs []*sim.Result) {
							appendClassSeries(t, pol, frac, rs)
							opts.progress("fig12 frac=%g %s: sharing %.1f non %.1f",
								frac, pol, mean(rs, sharingMin), mean(rs, nonSharingMin))
						},
					})
				}
			}
			if err := runGrid(opts, pts); err != nil {
				return nil, err
			}
			return &Report{Tables: []*metrics.Table{t}}, nil
		},
	}
}

// AblationPreemption quantifies the contribution of reclaiming non-exchange
// slots, a design choice the paper's mechanism mandates.
func AblationPreemption() *Experiment {
	return &Experiment{
		ID:          "ablation-preemption",
		Title:       "Ablation: preempting non-exchange transfers for new exchanges",
		Description: "Compares sharing speedup with and without slot reclamation.",
		Run: func(opts Options) (*Report, error) {
			t := &metrics.Table{Title: "Ablation: preemption", XLabel: "upload capacity (kb/s)", YLabel: "speedup sharing vs non-sharing"}
			uls := []float64{80, 40}
			if opts.Quick {
				uls = []float64{40, 20}
			}
			var pts []point
			for _, ul := range uls {
				for _, disable := range []bool{false, true} {
					cfg := base(opts)
					cfg.UploadKbps = ul
					cfg.Policy = core.Policy2N
					cfg.DisablePreemption = disable
					name := "with preemption"
					if disable {
						name = "without preemption"
					}
					pts = append(pts, point{
						label: fmt.Sprintf("ablation-preemption ul=%g %s", ul, name),
						cfg:   cfg,
						emit: func(rs []*sim.Result) {
							appendAgg(t, name, ul, rs, speedup)
							preemptions := 0
							for _, r := range rs {
								preemptions += r.Preemptions
							}
							opts.progress("ablation-preemption ul=%g %s: speedup %.2f preemptions %d",
								ul, name, mean(rs, speedup), preemptions/len(rs))
						},
					})
				}
			}
			if err := runGrid(opts, pts); err != nil {
				return nil, err
			}
			return &Report{Tables: []*metrics.Table{t}}, nil
		},
	}
}
