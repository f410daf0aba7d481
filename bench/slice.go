package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// A slice is one workload's fixed amount of seeded work, run in a fresh
// child process: the harness re-executes its own binary with -slice, the
// child sets the world up, does the work, checks its outputs and prints one
// sliceResult as JSON. A process per slice keeps heap, GC and goroutine state
// from leaking between slices and lets the parent read the child's peak RSS
// and CPU time from wait4.

type sliceArgs struct {
	workload string
	seed     uint64
	round    int
	traced   bool
	smoke    bool
	outDir   string
	// start is when the child's main began: set-up time runs from here.
	start time.Time
}

type sliceResult struct {
	Workload string `json:"workload"`
	Round    int    `json:"round"`
	Traced   bool   `json:"traced"`
	// SetupS is the child's time from main to its first operation. WallRawS
	// is the wall-clock time the slice's fixed work took after that. WallS is
	// the gated figure: equal to WallRawS for the simulator; for the
	// closed-loop workloads the same makespan with the slowest tenth of the
	// ops set aside (see bodyMakespan).
	SetupS   float64 `json:"setup_s"`
	WallS    float64 `json:"wall_s"`
	WallRawS float64 `json:"wall_raw_s"`
	Ops      int     `json:"ops"`
	Failed   int     `json:"failed"`
	// Notes holds the first few failure reasons.
	Notes   []string `json:"notes,omitempty"`
	OpMsP50 float64  `json:"op_ms_p50"`
	OpMsP90 float64  `json:"op_ms_p90"`
	OpMsP99 float64  `json:"op_ms_p99"`
	// Counts are outputs that must repeat exactly for a given seed; the gate
	// compares them across rounds where the workload is deterministic.
	Counts map[string]float64 `json:"counts"`
	// Layers are the per-layer values this slice observed.
	Layers   map[string]float64 `json:"layers"`
	GCCycles float64            `json:"gc_cycles"`
	AllocMB  float64            `json:"alloc_mb"`
	// CPUMeasuredS is the child's user+system CPU time over the measured
	// part alone (set-up excluded).
	CPUMeasuredS float64 `json:"cpu_measured_s"`
	// Filled in by the parent from the child's rusage.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	CPUUserS  float64 `json:"cpu_user_s"`
	CPUSysS   float64 `json:"cpu_sys_s"`
}

func newSliceResult(a sliceArgs) *sliceResult {
	return &sliceResult{
		Workload: a.workload,
		Round:    a.round,
		Traced:   a.traced,
		Counts:   make(map[string]float64),
		Layers:   make(map[string]float64),
	}
}

const maxNotes = 5

// fail counts one failed operation and keeps the first few reasons.
func (r *sliceResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Notes) < maxNotes {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

func (r *sliceResult) setLatencies(ms []float64) {
	r.OpMsP50 = median(ms)
	r.OpMsP90 = percentile(ms, 90)
	r.OpMsP99 = percentile(ms, 99)
}

// bodyMakespan is how long the closed loop would have taken had every op
// cost the mean of the fastest nine tenths: ops × mean(latency ≤ p90) /
// clients, in seconds. The true wall clock of a closed loop is ops × mean
// latency / clients, and on this machine that mean is set by the hypervisor,
// not the program: in a stall storm 1–5 % of the ops wait 4–150 ms for a
// vCPU and the wall doubles or triples while p50 does not move (README,
// "Noise study"). p90 is the highest percentile the gate trusts, so the gate
// looks at everything up to it — its median, its edge and, here, its total —
// and what lies beyond is reported ungated (p99, harness.wall_raw_s).
func bodyMakespan(ms []float64, clients int) float64 {
	if len(ms) == 0 {
		return 0
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	body := s[:(len(s)*9+9)/10]
	var sum float64
	for _, x := range body {
		sum += x
	}
	return sum / float64(len(body)) * float64(len(s)) / float64(clients) / 1e3
}

type memCounts struct {
	gc      float64
	allocMB float64
	mallocs float64
}

func readMem() memCounts {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounts{gc: float64(m.NumGC), allocMB: float64(m.TotalAlloc) / (1 << 20), mallocs: float64(m.Mallocs)}
}

func (m memCounts) sub(o memCounts) memCounts {
	return memCounts{gc: m.gc - o.gc, allocMB: m.allocMB - o.allocMB, mallocs: m.mallocs - o.mallocs}
}

// probeSlice is the -slice name that runs the layer probes instead of a
// workload.
const probeSlice = "probes"

// sliceMain is the child's entry point.
func sliceMain(a sliceArgs) error {
	if a.workload == probeSlice {
		return probeMain(a.seed, a.smoke)
	}
	w, ok := workloadByName(a.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", a.workload)
	}
	var tr *tracer
	if a.traced {
		tr = newTracer()
	}
	var (
		res *sliceResult
		err error
	)
	switch w.Kind {
	case kindSim:
		res, err = runSimSlice(a, tr)
	case kindLive:
		res, err = runLiveSlice(a, tr)
	case kindMedAudit:
		res, err = runMedAuditSlice(a, tr)
	}
	if err != nil {
		return err
	}
	if a.traced {
		if err := tr.write(filepath.Join(a.outDir, "trace-"+a.workload+".json"), a.workload); err != nil {
			return err
		}
		if a.workload == wlRings {
			if err := probeRunner(a, res); err != nil {
				return err
			}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// probeMain is the probe child's entry point.
func probeMain(seed uint64, smoke bool) error {
	l, err := runProbes(seed, smoke)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(l)
}

// spawn runs one child of this binary and decodes the JSON it prints into
// out. The child inherits flags and nothing else: an empty environment, no
// stdin. Children run strictly one at a time while the parent sits idle.
func spawn(exe string, args []string, smoke bool, out any) (*os.ProcessState, error) {
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = []string{}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v: %w", args, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return nil, fmt.Errorf("%v: bad result: %w", args, err)
	}
	return cmd.ProcessState, nil
}

func spawnProbes(exe string, seed uint64, smoke bool) (map[string]float64, error) {
	var l map[string]float64
	_, err := spawn(exe, []string{"-slice", probeSlice, "-seed", strconv.FormatUint(seed, 10)}, smoke, &l)
	return l, err
}

// spawnSlice runs one slice in a child process and returns its result with
// the rusage fields filled in.
func spawnSlice(exe string, a sliceArgs) (*sliceResult, error) {
	args := []string{
		"-slice", a.workload,
		"-seed", strconv.FormatUint(a.seed, 10),
		"-round", strconv.Itoa(a.round),
		"-out", a.outDir,
	}
	if a.traced {
		args = append(args, "-traced")
	}
	var res sliceResult
	state, err := spawn(exe, args, a.smoke, &res)
	if err != nil {
		return nil, err
	}
	if ru, ok := state.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		res.CPUUserS = time.Duration(ru.Utime.Nano()).Seconds()
		res.CPUSysS = time.Duration(ru.Stime.Nano()).Seconds()
	}
	return &res, nil
}
