package experiment

// The two entry points the CLIs expose for the shared workload layer:
// open-loop spec runs (exchsim -workload) and trace replay (exchsim -trace).
// Each is a one-point row run through the same loop as the figures, so its
// TSV is byte-identical at any -parallel setting.

import (
	"fmt"

	"barter/internal/metrics"
	"barter/internal/sim"
	"barter/internal/workload"
)

// The columns of the one-point workload and replay tables.
var (
	completed   = series{"completed downloads", classTotal(func(c sim.ClassResult) int { return c.Completed })}
	meanMinutes = series{"mean download time (min)", allMin}
	dropped     = series{"demand dropped at MaxPending", workloadDropped}
	lookups     = series{"lookup failures", func(r *sim.Result) float64 { return float64(r.LookupFailures) }}
)

// onePoint is a row of a single point: cfg with set applied, appending ss.
func onePoint(title, label string, set func(*sim.Config), ss ...series) *Experiment {
	return &Experiment{
		table: metrics.Table{Title: title, XLabel: "metric", YLabel: "value"},
		grid: func(cfg sim.Config, _ bool) []point {
			set(&cfg)
			return []point{{label: label, cfg: cfg, series: ss}}
		},
	}
}

// WorkloadRun executes one open-loop workload spec in the simulator through
// the parallel grid runner: Options.Replicas replicates it under derived
// seeds and Options.Parallel fans the replicas out, with byte-identical TSV
// at any worker count. This is exchsim -workload.
func WorkloadRun(spec *workload.Spec, opts Options) (*Report, error) {
	name := "workload " + specName(spec)
	return onePoint(name, name, func(cfg *sim.Config) { cfg.Workload = spec },
		completed, meanMinutes, dropped, lookups).run(opts)
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
	title := fmt.Sprintf("replay %s (%d events over %.1fs)", label, len(tr.Events), tr.Header.Horizon)
	return onePoint(title, "replay "+label, func(cfg *sim.Config) {
		// The recorded horizon is wall-clock seconds; warmup exclusion
		// belongs to the steady-state figures, not to a replayed transient.
		cfg.WarmupFrac = 0
		cfg.Trace = tr
	}, completed, meanMinutes, lookups).run(opts)
}

// specName labels a spec in tables and progress lines.
func specName(s *workload.Spec) string {
	if s.Name != "" {
		return s.Name
	}
	return "custom"
}
