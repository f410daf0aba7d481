package barter

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"barter/internal/core"
	"barter/internal/experiment"
	"barter/internal/metrics"
	"barter/internal/runner"
	"barter/internal/sim"
	"barter/internal/workload"
)

// The benchmarks below regenerate every table and figure of the paper at the
// scaled-down (quick) configuration, reporting each figure's headline number
// as a custom metric so `go test -bench .` doubles as a reproduction run.
// cmd/exchsim regenerates the same artifacts at paper scale.

func benchOpts() experiment.Options { return experiment.Options{Seed: 1, Quick: true} }

func runExperiment(b *testing.B, id string) *experiment.Report {
	b.Helper()
	e, ok := experiment.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	rep, err := e.Run(benchOpts())
	if err != nil {
		b.Fatalf("%s: %v", id, err)
	}
	return rep
}

func lastY(b *testing.B, tab *metrics.Table, series string) float64 {
	b.Helper()
	s := tab.Get(series)
	if s == nil || len(s.Points) == 0 {
		b.Fatalf("series %q missing or empty", series)
	}
	return s.Points[len(s.Points)-1].Y
}

func BenchmarkTable2Defaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "table2")
		if rep.Text == "" {
			b.Fatal("empty table2")
		}
	}
}

func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "fig4")
		tab := rep.Tables[0]
		sharing := lastY(b, tab, "2-5-way/sharing")
		non := lastY(b, tab, "2-5-way/non-sharing")
		b.ReportMetric(non/sharing, "speedup@tightest")
	}
}

func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "fig5")
		b.ReportMetric(lastY(b, rep.Tables[0], "2-5-way"), "exchfrac@tightest")
	}
}

func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "fig6")
		tab := rep.Tables[0]
		sharing := lastY(b, tab, "2-N-way/sharing")
		non := lastY(b, tab, "2-N-way/non-sharing")
		b.ReportMetric(non/sharing, "speedup@maxN")
	}
}

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "fig7")
		b.ReportMetric(float64(len(rep.Tables[0].Series)), "session-classes")
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "fig8")
		b.ReportMetric(float64(len(rep.Tables[0].Series)), "session-classes")
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "fig9")
		tab := rep.Tables[0]
		sharing := lastY(b, tab, "2-5-way/sharing")
		non := lastY(b, tab, "2-5-way/non-sharing")
		b.ReportMetric(non/sharing, "speedup@f=1")
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "fig10")
		tab := rep.Tables[0]
		b.ReportMetric(lastY(b, tab, "2-5-way/sharing"), "sharingMB@f=1")
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "fig11")
		b.ReportMetric(lastY(b, rep.Tables[0], "cat/peer=8"), "speedup@cats8")
	}
}

func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "fig12")
		tab := rep.Tables[0]
		sharing := lastY(b, tab, "2-5-way/sharing")
		non := lastY(b, tab, "2-5-way/non-sharing")
		b.ReportMetric(non/sharing, "speedup@frac0.8")
	}
}

func BenchmarkAblationPreemption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "ablation-preemption")
		tab := rep.Tables[0]
		with := lastY(b, tab, "with preemption")
		without := lastY(b, tab, "without preemption")
		if !math.IsNaN(with) && !math.IsNaN(without) {
			b.ReportMetric(with-without, "speedup-delta")
		}
	}
}

func BenchmarkAblationCredit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "ablation-credit")
		tab := rep.Tables[0]
		exch := lastY(b, tab, "exchange (2-5-way)")
		kazaa := lastY(b, tab, "kazaa level (cheated)")
		b.ReportMetric(exch-kazaa, "exchange-vs-kazaa")
	}
}

func BenchmarkAblationSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep := runExperiment(b, "ablation-search")
		b.ReportMetric(lastY(b, rep.Tables[0], "exchange fraction"), "frac@maxbudget")
	}
}

// BenchmarkRunnerSequentialVsParallel runs the same 8-point quick grid at
// several worker-pool widths. The runner's contract makes the outputs
// byte-identical, so the sub-benchmark wall times isolate the fan-out
// speedup (expect roughly linear scaling up to the core count).
func BenchmarkRunnerSequentialVsParallel(b *testing.B) {
	makeJobs := func() []runner.Job {
		var jobs []runner.Job
		for _, ul := range []float64{80, 60, 40, 20} {
			for _, pol := range []core.Policy{core.Policy2N, core.PolicyNoExchange} {
				cfg := experiment.QuickBase()
				cfg.Seed = 1
				cfg.UploadKbps = ul
				cfg.Policy = pol
				jobs = append(jobs, runner.Job{Config: cfg})
			}
		}
		return jobs
	}
	widths := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		widths = append(widths, n)
	}
	for _, workers := range widths {
		b.Run(fmt.Sprintf("parallel=%d", workers), func(b *testing.B) {
			jobs := makeJobs()
			for i := 0; i < b.N; i++ {
				results, err := runner.Run(jobs, runner.Options{Parallel: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != len(jobs) || results[0].Primary() == nil {
					b.Fatal("incomplete grid results")
				}
			}
		})
	}
}

// BenchmarkSimulationEventRate measures raw engine throughput at paper
// scale: events executed per second of wall time.
func BenchmarkSimulationEventRate(b *testing.B) {
	cfg := experiment.FullBase()
	cfg.Duration = 50_000
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkChurnEventRate measures engine throughput under continuous
// disconnect/rejoin churn: bulk removal and re-insertion of whole peer
// stores is the worst-case path of the incremental holders/wanters indexes.
func BenchmarkChurnEventRate(b *testing.B) {
	cfg := experiment.FullBase()
	cfg.Duration = 20_000
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		s, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for t := 1_000.0; t < cfg.Duration-1_000; t += 1_000 {
			s.RunUntil(t)
			id := core.PeerID(int(t/1_000) % s.NumPeers())
			s.DisconnectPeer(id)
			s.RunUntil(t + 500)
			s.RejoinPeer(id)
		}
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		events += res.Events
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkRingSearchPolicies compares the per-search cost of the two
// search orders on a loaded live graph snapshot.
func BenchmarkRingSearchPolicies(b *testing.B) {
	cfg := experiment.QuickBase()
	cfg.UploadKbps = 20
	s, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.RunUntil(10_000)
	for _, pol := range []core.Policy{core.PolicyPairwise, core.Policy2N, core.PolicyN2} {
		b.Run(pol.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.SearchOnce(core.PeerID(i%cfg.NumPeers), pol)
			}
		})
	}
}

// BenchmarkWorkloadSchedule measures the temporal workload layer's
// scheduling throughput: compiling a builtin spec and walking every peer's
// arrival process across the full horizon, exactly as the simulator's
// open-loop setup and the swarm's wave builder do. Reported as sampled
// arrivals per second of wall time.
func BenchmarkWorkloadSchedule(b *testing.B) {
	spec, ok := workload.Builtin("flash")
	if !ok {
		b.Fatal("flash builtin missing")
	}
	const peers, objects = 200, 100
	b.ReportAllocs()
	var arrivals uint64
	for i := 0; i < b.N; i++ {
		sched, err := spec.Compile(3600, peers, objects, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		for p := 0; p < peers; p++ {
			arrive, depart := sched.Session(p)
			st := sched.PeerStream(p)
			for t := sched.NextArrival(arrive, st); t < depart; t = sched.NextArrival(t, st) {
				if obj := sched.SampleObject(t, st); obj < 0 || obj >= objects {
					b.Fatalf("object %d out of range", obj)
				}
				arrivals++
			}
		}
	}
	if arrivals == 0 {
		b.Fatal("schedule produced no arrivals")
	}
	b.ReportMetric(float64(arrivals)/b.Elapsed().Seconds(), "arrivals/s")
}
