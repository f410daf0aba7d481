package runner

import (
	"strings"
	"sync"
	"testing"

	"barter/internal/catalog"
	"barter/internal/sim"
	"barter/internal/strategy"
)

// tinyConfig is a miniature world that runs in tens of milliseconds, small
// enough that runner tests can afford grids of them even under -race.
func tinyConfig(seed uint64) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.NumPeers = 12
	cfg.Catalog = catalog.Config{
		Categories:            4,
		ObjectsPerCategoryMin: 2,
		ObjectsPerCategoryMax: 6,
		CategoryFactor:        0.2,
		ObjectFactor:          0.2,
		CategoriesPerPeerMin:  1,
		CategoriesPerPeerMax:  3,
	}
	cfg.ObjectKbits = 2000
	cfg.BlockKbits = 250
	cfg.StorageMinObjects = 4
	cfg.StorageMaxObjects = 8
	cfg.MaxPending = 4
	cfg.Duration = 5_000
	cfg.EvictionInterval = 600
	cfg.RetryInterval = 120
	cfg.Seed = seed
	return cfg
}

func grid(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		cfg := tinyConfig(uint64(i + 1))
		cfg.UploadKbps = 20 + 10*float64(i%4)
		jobs[i] = Job{Config: cfg, Label: "tiny"}
	}
	return jobs
}

// fingerprint reduces a sim result to comparable scalars.
func fingerprint(r *sim.Result) [3]float64 {
	return [3]float64{float64(r.Events), float64(r.Class(strategy.LabelSharing).Completed), r.ExchangeFraction}
}

func TestRunPreservesSubmissionOrder(t *testing.T) {
	jobs := grid(6)
	results, err := Run(jobs, Options{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(results), len(jobs))
	}
	for i, res := range results {
		if res.Index != i {
			t.Fatalf("results[%d].Index = %d", i, res.Index)
		}
		if res.Job.Config.Seed != jobs[i].Config.Seed {
			t.Fatalf("results[%d] carries job seed %d, want %d", i, res.Job.Config.Seed, jobs[i].Config.Seed)
		}
		if res.Primary() == nil {
			t.Fatalf("results[%d] has no primary result", i)
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	jobs := grid(6)
	seq, err := Run(jobs, Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(jobs, Options{Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if fingerprint(seq[i].Primary()) != fingerprint(par[i].Primary()) {
			t.Fatalf("job %d diverged between parallel levels: %v vs %v",
				i, fingerprint(seq[i].Primary()), fingerprint(par[i].Primary()))
		}
	}
}

func TestReplicaZeroKeepsConfiguredSeed(t *testing.T) {
	jobs := grid(3)
	direct, err := Run(jobs, Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	replicated, err := Run(jobs, Options{Parallel: 4, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if len(replicated[i].Replicas) != 3 {
			t.Fatalf("job %d: %d replicas, want 3", i, len(replicated[i].Replicas))
		}
		if fingerprint(direct[i].Primary()) != fingerprint(replicated[i].Primary()) {
			t.Fatalf("job %d: replica 0 diverged from the single-replica run", i)
		}
	}
}

func TestReplicasDiverge(t *testing.T) {
	results, err := Run(grid(1), Options{Parallel: 2, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	rs := results[0].Replicas
	if fingerprint(rs[0]) == fingerprint(rs[1]) && fingerprint(rs[1]) == fingerprint(rs[2]) {
		t.Fatal("all three replicas produced identical runs (derived seeds not applied)")
	}
}

func TestJobSeedContract(t *testing.T) {
	if got := JobSeed(7, 3, 0); got != 7 {
		t.Fatalf("replica 0 seed = %d, want the configured 7", got)
	}
	seen := map[uint64]bool{}
	for job := 0; job < 4; job++ {
		for rep := 1; rep < 4; rep++ {
			s := JobSeed(7, job, rep)
			if seen[s] {
				t.Fatalf("derived seed %d repeated at job %d replica %d", s, job, rep)
			}
			seen[s] = true
			if s2 := JobSeed(7, job, rep); s2 != s {
				t.Fatalf("JobSeed not pure: %d then %d", s, s2)
			}
		}
	}
}

func TestFinalizeRunsPerReplica(t *testing.T) {
	var (
		mu    sync.Mutex
		seeds []uint64
	)
	jobs := grid(2)
	for i := range jobs {
		jobs[i].Finalize = func(c sim.Config) sim.Config {
			mu.Lock()
			seeds = append(seeds, c.Seed)
			mu.Unlock()
			return c
		}
	}
	if _, err := Run(jobs, Options{Parallel: 2, Replicas: 2}); err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 4 {
		t.Fatalf("finalize ran %d times, want 4", len(seeds))
	}
	distinct := map[uint64]bool{}
	for _, s := range seeds {
		distinct[s] = true
	}
	if len(distinct) != 4 {
		t.Fatalf("finalize saw %d distinct seeds, want 4 (one per job x replica)", len(distinct))
	}
}

func TestErrorPropagates(t *testing.T) {
	jobs := grid(3)
	jobs[1].Config.NumPeers = 1 // fails validation
	jobs[1].Label = "badjob"
	_, err := Run(jobs, Options{Parallel: 2})
	if err == nil {
		t.Fatal("invalid job config did not surface an error")
	}
	if !strings.Contains(err.Error(), "badjob") {
		t.Fatalf("error %q does not name the failing job", err)
	}
}

func TestProgressReportsEveryRun(t *testing.T) {
	var (
		mu    sync.Mutex
		lines []string
	)
	_, err := Run(grid(3), Options{Parallel: 4, Replicas: 2, Progress: func(msg string) {
		mu.Lock()
		lines = append(lines, msg)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 6 {
		t.Fatalf("progress fired %d times, want 6 (3 jobs x 2 replicas)", len(lines))
	}
}

func TestDefaultsApplied(t *testing.T) {
	// Parallel and Replicas at zero mean NumCPU workers and one replica.
	results, err := Run(grid(2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if len(res.Replicas) != 1 {
			t.Fatalf("job %d: %d replicas by default, want 1", i, len(res.Replicas))
		}
	}
}
