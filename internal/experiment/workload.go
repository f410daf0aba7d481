package experiment

// Temporal-workload artifacts: the figt experiment sweeping demand shapes
// against incentive mechanisms, plus the two entry points the CLIs expose
// for the shared workload layer — open-loop spec runs (exchsim -workload)
// and trace replay (exchsim -trace). All three run through the same
// parallel grid runner as the figures, so their TSV is byte-identical at
// any -parallel setting.

import (
	"fmt"

	"barter/internal/core"
	"barter/internal/credit"
	"barter/internal/metrics"
	"barter/internal/sim"
	"barter/internal/workload"
)

// Per-replica extractors for workload runs.
func completedAll(r *sim.Result) float64 {
	n := 0
	for _, c := range r.Classes {
		n += c.Completed
	}
	return float64(n)
}
func workloadDropped(r *sim.Result) float64 { return float64(r.WorkloadDropped) }
func lookupFails(r *sim.Result) float64     { return float64(r.LookupFailures) }

// FigT is the temporal-workload figure: the builtin demand shapes crossed
// with the exchange mechanism and the credit-ranking baselines. It asks the
// incentive question under time-varying demand instead of the paper's
// steady closed loop: does exchange priority keep its sharing-class
// advantage through a flash crowd or a diurnal cycle?
func FigT() *Experiment {
	return &Experiment{
		ID:          "figt",
		Title:       "Sharing-class speedup under temporal demand shapes (workload layer)",
		Description: "Crosses the builtin workload specs (constant, diurnal, flash) with exchange and credit-ranking mechanisms; reports sharing vs. non-sharing speedup.",
		Run: func(opts Options) (*Report, error) {
			t := &metrics.Table{
				Title:  "Figure T: temporal workloads",
				XLabel: "demand shape (0=constant, 1=diurnal, 2=flash)",
				YLabel: "speedup: mean download time, sharing vs. non-sharing",
			}
			type mech struct {
				name   string
				policy core.Policy
				ranker func() sim.Ranker
			}
			mechs := []mech{
				{name: "exchange (2-5-way)", policy: core.Policy2N, ranker: func() sim.Ranker { return nil }},
				{name: "fifo (no incentive)", policy: core.PolicyNoExchange, ranker: func() sim.Ranker { return nil }},
				{name: "emule credit", policy: core.PolicyNoExchange, ranker: func() sim.Ranker { return credit.NewEMule() }},
			}
			var pts []point
			for xi, shape := range []string{"constant", "diurnal", "flash"} {
				spec, ok := workload.Builtin(shape)
				if !ok {
					return nil, fmt.Errorf("experiment: unknown builtin workload %q", shape)
				}
				for _, m := range mechs {
					x := float64(xi)
					cfg := base(opts)
					cfg.UploadKbps = 40 // the loaded regime, as in the other incentive figures
					cfg.Policy = m.policy
					cfg.Workload = spec
					m := m
					pts = append(pts, point{
						label: fmt.Sprintf("figt shape=%s %s", shape, m.name),
						cfg:   cfg,
						// Stateful rankers are per-replica state: build them in
						// Finalize, never on the shared Config.
						finalize: func(c sim.Config) sim.Config {
							c.Ranker = m.ranker()
							return c
						},
						emit: func(rs []*sim.Result) {
							appendAgg(t, m.name, x, rs, speedup)
							opts.progress("figt shape=%s %s: speedup %.2f dropped %.0f",
								shape, m.name, mean(rs, speedup), mean(rs, workloadDropped))
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

// WorkloadRun executes one open-loop workload spec in the simulator through
// the parallel grid runner: Options.Replicas replicates it under derived
// seeds and Options.Parallel fans the replicas out, with byte-identical TSV
// at any worker count. This is exchsim -workload.
func WorkloadRun(spec *workload.Spec, opts Options) (*Report, error) {
	t := &metrics.Table{
		Title:  fmt.Sprintf("workload %s", specName(spec)),
		XLabel: "metric",
		YLabel: "value",
	}
	cfg := base(opts)
	cfg.Workload = spec
	pts := []point{{
		label: "workload " + specName(spec),
		cfg:   cfg,
		emit: func(rs []*sim.Result) {
			appendAgg(t, "completed downloads", 0, rs, completedAll)
			appendAgg(t, "mean download time (min)", 0, rs, allMin)
			appendAgg(t, "demand dropped at MaxPending", 0, rs, workloadDropped)
			appendAgg(t, "lookup failures", 0, rs, lookupFails)
			opts.progress("workload %s: completed %.0f mean %.1f min dropped %.0f",
				specName(spec), mean(rs, completedAll), mean(rs, allMin), mean(rs, workloadDropped))
		},
	}}
	if err := runGrid(opts, pts); err != nil {
		return nil, err
	}
	return &Report{Tables: []*metrics.Table{t}}, nil
}

// ReplayTrace re-runs a recorded trace (typically an exchswarm -record
// capture) in the simulator. The replayed world's shape comes from the
// trace header; the replay seed comes from Options, derived per replica by
// the runner — so the emitted TSV is byte-identical at any Options.Parallel
// for the same trace and options. This is exchsim -trace.
func ReplayTrace(tr *workload.Trace, opts Options) (*Report, error) {
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	label := tr.Header.Scenario
	if label == "" {
		label = "trace"
	}
	t := &metrics.Table{
		Title:  fmt.Sprintf("replay %s (%d events over %.1fs)", label, len(tr.Events), tr.Header.Horizon),
		XLabel: "metric",
		YLabel: "value",
	}
	cfg := base(opts)
	// The recorded horizon is wall-clock seconds; warmup exclusion belongs
	// to the steady-state figures, not to a replayed transient.
	cfg.WarmupFrac = 0
	cfg.Trace = tr
	pts := []point{{
		label: "replay " + label,
		cfg:   cfg,
		emit: func(rs []*sim.Result) {
			appendAgg(t, "completed downloads", 0, rs, completedAll)
			appendAgg(t, "mean download time (min)", 0, rs, allMin)
			appendAgg(t, "lookup failures", 0, rs, lookupFails)
			opts.progress("replay %s: completed %.0f mean %.1f min",
				label, mean(rs, completedAll), mean(rs, allMin))
		},
	}}
	if err := runGrid(opts, pts); err != nil {
		return nil, err
	}
	return &Report{Tables: []*metrics.Table{t}}, nil
}

// specName labels a spec in tables and progress lines.
func specName(s *workload.Spec) string {
	if s.Name != "" {
		return s.Name
	}
	return "custom"
}
