// Package experiment defines one runnable specification per table and figure
// of the paper's evaluation (Section IV), plus the ablations called out in
// DESIGN.md. Each experiment reproduces the corresponding figure's series;
// absolute values depend on the simulated substrate, but orderings, ratios,
// and crossovers are expected to match the paper (see EXPERIMENTS.md).
//
// Every experiment is one row of a table (rows.go): a table header and a grid
// of points, each a labelled configuration, an x value, an optional
// incentive mechanism and the series it appends. One loop (Experiment.run)
// serves every row: internal/runner fans the runs out over a worker pool
// (Options.Parallel), optionally replicating each point under derived seeds
// (Options.Replicas), and the loop appends every point's series in
// submission order. Tables are therefore byte-identical at any parallelism;
// with replication on, swept figures gain mean +/- 95% CI columns.
package experiment

import (
	"fmt"
	"sort"
	"strings"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/credit"
	"barter/internal/metrics"
	"barter/internal/runner"
	"barter/internal/sim"
)

// Options tunes one experiment invocation.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed uint64
	// Quick runs the scaled-down world (QuickBase: 30 peers, 0.5 MB
	// objects), same shapes. Tests and benchmarks use it.
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

// Report is the output of one experiment: the figure's data tables, an
// optional free-text section, and the summed counts of the runs behind them.
type Report struct {
	Tables []*metrics.Table
	Text   string
	Counts Counts
}

// Counts sums simulator runs' engine counts (exchsim -perf): events split
// into block arrivals and heap events as sim.Result splits them, and the
// ring searches' effort. WantsChecked is computed, not performed (see
// core.SearchStats.WantsChecked).
type Counts struct {
	Runs, Events, Blocks, HeapEvents                   uint64
	Searches, NodesVisited, WantsChecked, RingsStarted uint64
}

// Add folds o into c.
func (c *Counts) Add(o Counts) {
	c.Runs += o.Runs
	c.Events += o.Events
	c.Blocks += o.Blocks
	c.HeapEvents += o.HeapEvents
	c.Searches += o.Searches
	c.NodesVisited += o.NodesVisited
	c.WantsChecked += o.WantsChecked
	c.RingsStarted += o.RingsStarted
}

// runCounts is one run's Counts.
func runCounts(r *sim.Result) Counts {
	return Counts{
		Runs:         1,
		Events:       r.Events,
		Blocks:       r.Blocks,
		HeapEvents:   r.HeapEvents,
		Searches:     uint64(r.RingSearches),
		NodesVisited: uint64(r.SearchNodesVisited),
		WantsChecked: uint64(r.SearchWantsChecked),
		RingsStarted: uint64(r.RingAttempts - r.RingValidationFailures),
	}
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

// Experiment is one reproducible paper artifact: one row of the table in
// rows.go.
type Experiment struct {
	// ID is the artifact key ("fig4" ... "fig12", "table2", "ablation-*").
	ID string
	// Title matches the paper's caption.
	Title string
	// Description says what is swept and what is reported.
	Description string
	// Run executes the experiment (the row through Experiment.run).
	Run func(opts Options) (*Report, error)

	// table is the emitted table's header: title and axis labels.
	table metrics.Table
	// grid enumerates the points from the base world (Options.Seed already
	// applied); quick selects the scaled-down sweeps.
	grid func(base sim.Config, quick bool) []point
	// cdf, when set, makes the artifact distributional (Figures 7, 8): its
	// single point runs once and the table is the per-class CDF of cdf's
	// samples.
	cdf func(*sim.Result) *metrics.Grouped
	// text, when set, is the whole report and nothing runs (Table II).
	text func(sim.Config) string
}

// series is one plotted column a point appends: a name and the per-replica
// value it aggregates.
type series struct {
	name string
	f    func(*sim.Result) float64
}

// mechanism is one incentive mechanism: the exchange policy a point runs
// under and, for the credit baselines, the ranker ordering non-exchange
// service. The ranker is built once per replica after seed derivation: it is
// stateful, and the KaZaA cheat model keys on the replica's own free-rider
// draw.
type mechanism struct {
	name   string
	policy core.Policy
	ranker func(cfg *sim.Config) sim.Ranker
}

// The incentive mechanisms the rows compare: exchange priority against the
// related-work baselines of Section II — FIFO (no incentive), the eMule
// pairwise credit queue rank, and the KaZaA self-reported participation
// level, honest or with free-riders running the well-known level hack.
var (
	exchange = mechanism{name: "exchange (2-5-way)", policy: core.Policy2N}
	fifo     = mechanism{name: "fifo (no incentive)", policy: core.PolicyNoExchange}
	emule    = mechanism{name: "emule credit", policy: core.PolicyNoExchange,
		ranker: func(*sim.Config) sim.Ranker { return credit.NewEMule() }}
	kazaa = mechanism{name: "credit (kazaa level)", policy: core.PolicyNoExchange,
		ranker: func(*sim.Config) sim.Ranker { return credit.NewKaZaA(nil) }}
	kazaaCheated = mechanism{name: "kazaa level (cheated)", policy: core.PolicyNoExchange,
		ranker: func(cfg *sim.Config) sim.Ranker {
			// Class membership is derived the same way the simulator assigns
			// it, so the cheater set is exactly the free-rider set.
			classes := sim.PeerClasses(*cfg)
			return credit.NewKaZaA(func(p core.PeerID) bool { return !classes[p] })
		}}
)

// point is one grid entry: a labelled configuration, its x value, an
// optional mechanism (which sets the policy and the per-replica ranker), and
// the series it appends.
type point struct {
	label  string
	x      float64
	cfg    sim.Config
	mech   *mechanism
	series []series
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

// run is the one loop every row goes through: enumerate the grid, run it,
// then append each point's series and emit its summary line in submission
// order, so tables and progress are reproduced at any parallelism.
func (e *Experiment) run(opts Options) (*Report, error) {
	cfg := base(opts)
	if e.text != nil {
		return &Report{Text: e.text(cfg)}, nil
	}
	if e.cdf != nil {
		opts.Replicas = 1 // distributional figure: one run, no aggregation
	}
	pts := e.grid(cfg, opts.Quick)
	jobs := make([]runner.Job, len(pts))
	for i, p := range pts {
		jobs[i] = runner.Job{Config: p.cfg, Label: p.label}
		if m := p.mech; m != nil {
			jobs[i].Config.Policy = m.policy
			if m.ranker != nil {
				jobs[i].Finalize = func(c sim.Config) sim.Config { c.Ranker = m.ranker(&c); return c }
			}
		}
	}
	results, err := runner.Run(jobs, runner.Options{
		Parallel: opts.Parallel,
		Replicas: opts.Replicas,
		Progress: opts.Progress,
	})
	if err != nil {
		return nil, err
	}
	t := e.table
	var n Counts
	for i, p := range pts {
		rs := results[i].Replicas
		for _, r := range rs {
			n.Add(runCounts(r))
		}
		if e.cdf != nil {
			appendCDF(&t, e.cdf(rs[0]))
		}
		for _, s := range p.series {
			appendAgg(&t, s.name, p.x, rs, s.f)
		}
		opts.progress("%s", summary(p, rs))
	}
	return &Report{Tables: []*metrics.Table{&t}, Counts: n}, nil
}

// summary is a point's progress line: its label, the mean of every series it
// appended, and the run counters that are nonzero.
func summary(p point, rs []*sim.Result) string {
	mean := func(f func(*sim.Result) float64) float64 {
		m, _ := metrics.MeanCI95(vals(rs, f))
		return m
	}
	var b strings.Builder
	b.WriteString(p.label + ":")
	for _, s := range p.series {
		fmt.Fprintf(&b, " %s=%.4g", s.name, mean(s.f))
	}
	for _, s := range counters {
		if v := mean(s.f); v != 0 {
			fmt.Fprintf(&b, " %s=%.0f", s.name, v)
		}
	}
	return b.String()
}

// counters are the run counts a progress line shows when nonzero.
var counters = []series{
	{"preemptions", func(r *sim.Result) float64 { return float64(r.Preemptions) }},
	{"whitewashes", classTotal(func(c sim.ClassResult) int { return c.Whitewashes })},
	{"flips", classTotal(func(c sim.ClassResult) int { return c.Flips })},
	{"dropped", workloadDropped},
}

// Per-replica value extractors.
func allMin(r *sim.Result) float64          { return r.MeanDownloadMinAll() }
func exchFraction(r *sim.Result) float64    { return r.ExchangeFraction }
func speedup(r *sim.Result) float64         { return r.SpeedupSharingVsNonSharing() }
func workloadDropped(r *sim.Result) float64 { return float64(r.WorkloadDropped) }

// classTotal sums a per-class count over every class of a run.
func classTotal(f func(sim.ClassResult) int) func(*sim.Result) float64 {
	return func(r *sim.Result) float64 {
		n := 0
		for _, c := range r.Classes {
			n += f(c)
		}
		return float64(n)
	}
}

// sides is the "<name>/sharing" and "<name>/non-sharing" pair of
// side(r, sharing).
func sides(name string, side func(*sim.Result, bool) float64) []series {
	return []series{
		{name + "/sharing", func(r *sim.Result) float64 { return side(r, true) }},
		{name + "/non-sharing", func(r *sim.Result) float64 { return side(r, false) }},
	}
}

// classSeries is a policy's sides, or for the baseline the single "no
// exchange" series of all.
func classSeries(pol core.Policy, side func(*sim.Result, bool) float64, all func(*sim.Result) float64) []series {
	if pol.Kind == core.NoExchange {
		return []series{{"no exchange", all}}
	}
	return sides(pol.String(), side)
}

// vals extracts f over every replica.
func vals(rs []*sim.Result, f func(*sim.Result) float64) []float64 {
	ys := make([]float64, len(rs))
	for i, r := range rs {
		ys[i] = f(r)
	}
	return ys
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

// appendCDF appends one 25-point CDF series per class of g, classes sorted.
func appendCDF(t *metrics.Table, g *metrics.Grouped) {
	keys := g.Keys()
	sort.Strings(keys)
	for _, key := range keys {
		for _, pt := range g.Get(key).CDF(25) {
			t.Append(key, pt.V, pt.F)
		}
	}
}

// All returns every experiment in paper order.
func All() []*Experiment {
	out := make([]*Experiment, len(rows))
	for i := range rows {
		e := rows[i]
		e.Run = e.run
		out[i] = &e
	}
	return out
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
