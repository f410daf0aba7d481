// Package runner executes grids of independent simulation runs in parallel.
//
// The paper's evaluation (Section IV) is a grid of independent points —
// policies x upload-capacity sweeps x popularity sweeps — optionally
// replicated over several seeds. Every point is an isolated sim.Sim, so the
// grid is embarrassingly parallel; the runner fans the jobs out over a
// bounded worker pool and reassembles the results in submission order.
//
// Determinism contract: a job's effective seed depends only on
// (job.Config.Seed, job index, replica index) via rng.DeriveSeed — never on
// worker count or goroutine scheduling. Replica 0 runs the configured seed
// unchanged, so a single-replica grid produces byte-for-byte the output a
// sequential loop over the same configs would, at any parallelism.
package runner

import (
	"fmt"
	"runtime"
	"sync"

	"barter/internal/rng"
	"barter/internal/sim"
)

// Job is one grid point: a complete simulation configuration plus an
// optional label used in progress messages.
//
// Config is copied by value per replica, so pointer-typed fields holding
// per-run mutable state — above all a stateful Ranker such as the eMule
// credit tracker — must NOT be set on Config directly: the one instance
// would be shared by concurrently-running replicas (a data race) and would
// leak credit history across runs (scheduling-dependent output). Construct
// such state in Finalize instead, which runs once per replica.
type Job struct {
	Config sim.Config
	Label  string
	// Finalize, when non-nil, maps the seed-derived config to the config
	// actually run, once per replica. Use it to build any per-run mutable
	// state (see the Config note above) and any mechanism keyed to the
	// run's random draws — e.g. the KaZaA cheat model, whose misreporting
	// set must equal the replica's own free-rider set.
	Finalize func(sim.Config) sim.Config
}

// Options tunes one Run invocation.
type Options struct {
	// Parallel bounds the worker pool; <= 0 means runtime.NumCPU().
	Parallel int
	// Replicas runs every job this many times with distinct derived seeds;
	// <= 0 means 1. Replica 0 keeps the job's configured seed, replica r > 0
	// runs rng.DeriveSeed(seed, jobIndex, r).
	Replicas int
	// Progress, when non-nil, receives one line per completed run. Lines are
	// emitted as runs finish, so their order varies with scheduling; use it
	// for liveness, not for output. Calls are serialized: the callback never
	// runs concurrently with itself, so plain writers are safe.
	Progress func(msg string)
}

func (o Options) parallel() int {
	if o.Parallel <= 0 {
		return runtime.NumCPU()
	}
	return o.Parallel
}

func (o Options) replicas() int {
	if o.Replicas <= 0 {
		return 1
	}
	return o.Replicas
}

// Result is the outcome of one job: the per-replica simulation results in
// replica order, or the first error any replica hit.
type Result struct {
	Job      Job
	Index    int
	Replicas []*sim.Result
	Err      error
}

// Primary returns the replica-0 result (the one using the job's own seed).
//
//barter:allow deadcode bench/probes.go's runner probe; item 7(b)
func (r *Result) Primary() *sim.Result {
	if len(r.Replicas) == 0 {
		return nil
	}
	return r.Replicas[0]
}

// JobSeed returns the effective seed of (seed, job, replica) under the
// determinism contract: replica 0 is the identity, replica r > 0 derives a
// fresh stream keyed by job and replica.
func JobSeed(seed uint64, job, replica int) uint64 {
	if replica == 0 {
		return seed
	}
	return rng.DeriveSeed(seed, uint64(job), uint64(replica))
}

// unit is one work item: a single replica of a single job.
type unit struct {
	job     int
	replica int
	cfg     sim.Config
}

// Run executes every job, fanning replicas out over the worker pool, and
// returns one Result per job in submission order. It returns the first
// error encountered (by submission order) alongside the full result slice,
// so callers can still inspect completed runs.
func Run(jobs []Job, opts Options) ([]Result, error) {
	results := make([]Result, len(jobs))
	reps := opts.replicas()
	units := make([]unit, 0, len(jobs)*reps)
	for i, j := range jobs {
		results[i] = Result{Job: j, Index: i, Replicas: make([]*sim.Result, reps)}
		for r := 0; r < reps; r++ {
			cfg := j.Config
			cfg.Seed = JobSeed(j.Config.Seed, i, r)
			if j.Finalize != nil {
				cfg = j.Finalize(cfg)
			}
			units = append(units, unit{job: i, replica: r, cfg: cfg})
		}
	}

	workers := opts.parallel()
	if workers > len(units) {
		workers = len(units)
	}
	if workers < 1 {
		workers = 1
	}

	var (
		mu     sync.Mutex
		next   int
		failed bool
		wg     sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for {
			mu.Lock()
			if next >= len(units) || failed {
				mu.Unlock()
				return
			}
			u := units[next]
			next++
			mu.Unlock()

			res, err := runOne(u.cfg)
			mu.Lock()
			if err != nil {
				failed = true
				if results[u.job].Err == nil {
					results[u.job].Err = fmt.Errorf("job %d (%s) replica %d: %w",
						u.job, label(results[u.job].Job), u.replica, err)
				}
			} else {
				results[u.job].Replicas[u.replica] = res
			}
			if opts.Progress != nil {
				// Under mu so unsynchronized callbacks (plain writers) are
				// safe; the callback is expected to be quick logging.
				opts.Progress(fmt.Sprintf("done %s replica %d/%d", label(results[u.job].Job), u.replica+1, reps))
			}
			mu.Unlock()
		}
	}
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go worker()
	}
	wg.Wait()

	for i := range results {
		if results[i].Err != nil {
			return results, results[i].Err
		}
	}
	return results, nil
}

func label(j Job) string {
	if j.Label != "" {
		return j.Label
	}
	return "job"
}

func runOne(cfg sim.Config) (*sim.Result, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
