// Package workload is the temporal counterpart of internal/strategy: where
// the strategy layer declares *who* peers are, this package declares *when
// and what* they want. One declarative Spec — multi-period demand curves
// (constant, diurnal, flash-crowd wave with decay), a Zipf object-popularity
// model with optional drift, and peer-session cohorts (arrive/depart
// schedules) — is consumed identically by the simulator (sim.Config.Workload)
// and the live swarm (swarm.Config.Workload, the wave scenario).
//
// All times inside a Spec are normalized fractions of the run horizon, so
// the same spec drives a 200,000-virtual-second simulation and a 6-wall-
// second swarm run with the same shape. Absolute demand volume is anchored
// by RequestsPerPeer: the expected number of requests one peer generates
// over the whole horizon, however long the horizon is.
//
// Compile binds a Spec to a concrete run (horizon, population, catalog
// size, seed) and yields a Schedule. Every random draw a Schedule makes
// comes from per-peer streams derived via rng.DeriveSeed(seed, stream,
// peer), never from shared state, so arrival times are a pure function of
// (spec, horizon, peers, objects, seed, peer index) — the property that
// lets the parallel experiment runner replay a workload byte-identically
// at any worker count.
//
// The package also defines the versioned JSON-lines trace format (Trace,
// Recorder, ReadTrace) through which a recorded swarm run replays
// deterministically in the simulator; see docs/WORKLOADS.md for the spec
// and wire format, field by field.
package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"barter/internal/rng"
)

// The demand-curve shapes a Phase can take.
const (
	// ShapeConstant holds demand flat at Level for the phase.
	ShapeConstant = "constant"
	// ShapeDiurnal oscillates demand between Base and Peak over Cycles
	// sinusoidal day-cycles within the phase, starting at the trough.
	ShapeDiurnal = "diurnal"
	// ShapeFlash spikes demand to Peak at the phase start and decays
	// exponentially toward Base with time constant Decay — the paper's
	// flash-crowd arrival pattern.
	ShapeFlash = "flash"
)

// Spec is one declarative temporal workload: demand phases, an object-
// popularity model, and optional session cohorts. The zero value is not
// runnable; build one by hand, parse JSON with ParseSpec, or take a named
// Builtin. All fields use normalized horizon fractions (see the package
// comment); Validate reports the first inconsistency.
type Spec struct {
	// Name labels the spec in reports and traces.
	Name string `json:"name,omitempty"`
	// RequestsPerPeer is the expected number of requests one peer generates
	// over the whole horizon — the absolute demand anchor every other field
	// shapes. Must be positive.
	RequestsPerPeer float64 `json:"requests_per_peer"`
	// Phases is the demand curve, played in order; at least one is required.
	Phases []Phase `json:"phases"`
	// Popularity selects which objects the demand lands on.
	Popularity Popularity `json:"popularity"`
	// Cohorts partitions part of the population into arrive/depart sessions;
	// peers not claimed by any cohort are present for the whole run.
	Cohorts []Cohort `json:"cohorts,omitempty"`
}

// Phase is one segment of the demand curve. Its Duration is a weight: phase
// lengths are normalized so the phases exactly tile the horizon.
type Phase struct {
	// Shape is one of the Shape* constants.
	Shape string `json:"shape"`
	// Duration is the phase's relative length (default 1; phases tile the
	// horizon proportionally to their durations).
	Duration float64 `json:"duration,omitempty"`
	// Level is the constant shape's demand multiplier (default 1).
	Level float64 `json:"level,omitempty"`
	// Peak and Base bound the diurnal oscillation and the flash spike
	// (defaults: diurnal 1/0.25, flash 8/0.5).
	Peak float64 `json:"peak,omitempty"`
	Base float64 `json:"base,omitempty"`
	// Cycles is how many full diurnal cycles the phase spans (default 1).
	Cycles float64 `json:"cycles,omitempty"`
	// Decay is the flash shape's exponential time constant as a fraction of
	// the phase length (default 0.2).
	Decay float64 `json:"decay,omitempty"`
}

// Popularity is the object-selection model: a Zipf-like power law over the
// catalog, optionally drifting so today's hot objects are not tomorrow's.
type Popularity struct {
	// Zipf is the power-law exponent f (0 = uniform, 1 = zipf-like), the
	// same model as the paper's catalog popularity.
	Zipf float64 `json:"zipf"`
	// Drift is how many full rotations of the rank-to-object mapping occur
	// over the horizon (0 = static popularity).
	Drift float64 `json:"drift,omitempty"`
}

// Cohort is a population slice with a session window: its peers arrive at
// Arrive and depart at Depart (both horizon fractions), individually
// jittered by up to ±Jitter.
type Cohort struct {
	// Name labels the cohort in docs and logs.
	Name string `json:"name,omitempty"`
	// Frac is the fraction of the population in this cohort; cohort
	// fractions must sum to at most 1.
	Frac float64 `json:"frac"`
	// Arrive and Depart bound the session as horizon fractions; Depart 0
	// means "stays to the end".
	Arrive float64 `json:"arrive"`
	Depart float64 `json:"depart,omitempty"`
	// Jitter spreads each peer's arrive and depart independently by a
	// uniform draw in ±Jitter (horizon fraction), so a cohort does not slam
	// the system in lockstep.
	Jitter float64 `json:"jitter,omitempty"`
}

// depart returns the cohort's effective departure fraction (0 = horizon).
func (c Cohort) depart() float64 {
	if c.Depart <= 0 {
		return 1
	}
	return c.Depart
}

// Validate reports the first specification error, if any.
func (s *Spec) Validate() error {
	if s.RequestsPerPeer <= 0 {
		return fmt.Errorf("workload: RequestsPerPeer = %v, want > 0", s.RequestsPerPeer)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload: at least one phase is required")
	}
	for i, p := range s.Phases {
		switch p.Shape {
		case ShapeConstant, ShapeDiurnal, ShapeFlash:
		default:
			return fmt.Errorf("workload: phase %d: unknown shape %q", i, p.Shape)
		}
		if p.Duration < 0 {
			return fmt.Errorf("workload: phase %d: negative duration", i)
		}
		if p.Level < 0 || p.Peak < 0 || p.Base < 0 {
			return fmt.Errorf("workload: phase %d: negative demand level", i)
		}
		if p.Peak != 0 && p.Base > p.Peak {
			return fmt.Errorf("workload: phase %d: Base %v above Peak %v", i, p.Base, p.Peak)
		}
		if p.Cycles < 0 || p.Decay < 0 {
			return fmt.Errorf("workload: phase %d: negative Cycles or Decay", i)
		}
	}
	if s.Popularity.Zipf < 0 {
		return fmt.Errorf("workload: negative Zipf exponent")
	}
	if s.Popularity.Drift < 0 {
		return fmt.Errorf("workload: negative popularity Drift")
	}
	total := 0.0
	for i, c := range s.Cohorts {
		if c.Frac <= 0 || c.Frac > 1 {
			return fmt.Errorf("workload: cohort %d: Frac = %v, want (0, 1]", i, c.Frac)
		}
		if c.Arrive < 0 || c.Arrive >= 1 {
			return fmt.Errorf("workload: cohort %d: Arrive = %v, want [0, 1)", i, c.Arrive)
		}
		if d := c.depart(); d <= c.Arrive || d > 1 {
			return fmt.Errorf("workload: cohort %d: Depart = %v, want (Arrive, 1]", i, c.Depart)
		}
		if c.Jitter < 0 || c.Jitter > 0.5 {
			return fmt.Errorf("workload: cohort %d: Jitter = %v, want [0, 0.5]", i, c.Jitter)
		}
		total += c.Frac
	}
	if total > 1+1e-9 {
		return fmt.Errorf("workload: cohort fractions sum to %v, want <= 1", total)
	}
	return nil
}

// ParseSpec decodes and validates a JSON spec.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("workload: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// BuiltinNames lists the named built-in specs in presentation order.
func BuiltinNames() []string { return []string{"constant", "diurnal", "flash", "waves"} }

// Builtin returns a fresh copy of the named built-in spec, or false if the
// name is unknown. The builtins are the canonical demand shapes the figt
// experiment sweeps; callers may mutate their copy freely.
func Builtin(name string) (*Spec, bool) {
	switch name {
	case "constant":
		return &Spec{
			Name:            "constant",
			RequestsPerPeer: 40,
			Phases:          []Phase{{Shape: ShapeConstant}},
			Popularity:      Popularity{Zipf: 0.8},
		}, true
	case "diurnal":
		return &Spec{
			Name:            "diurnal",
			RequestsPerPeer: 40,
			Phases:          []Phase{{Shape: ShapeDiurnal, Cycles: 3}},
			Popularity:      Popularity{Zipf: 0.8, Drift: 0.5},
		}, true
	case "flash":
		return &Spec{
			Name:            "flash",
			RequestsPerPeer: 40,
			Phases: []Phase{
				{Shape: ShapeConstant, Duration: 1, Level: 0.4},
				{Shape: ShapeFlash, Duration: 3},
			},
			Popularity: Popularity{Zipf: 1.2},
		}, true
	case "waves":
		return &Spec{
			Name:            "waves",
			RequestsPerPeer: 40,
			Phases: []Phase{
				{Shape: ShapeFlash, Duration: 1},
				{Shape: ShapeDiurnal, Duration: 2, Cycles: 2},
			},
			Popularity: Popularity{Zipf: 1, Drift: 1},
			Cohorts: []Cohort{
				{Name: "early", Frac: 0.25, Arrive: 0, Depart: 0.6, Jitter: 0.05},
				{Name: "late", Frac: 0.25, Arrive: 0.4, Jitter: 0.05},
			},
		}, true
	}
	return nil, false
}

// Load resolves a workload argument the way the CLIs document it: a path to
// a JSON spec file if one exists there, otherwise a built-in name.
func Load(nameOrPath string) (*Spec, error) {
	if data, err := os.ReadFile(nameOrPath); err == nil {
		return ParseSpec(data)
	}
	if s, ok := Builtin(nameOrPath); ok {
		return s, nil
	}
	return nil, fmt.Errorf("workload: %q is neither a readable spec file nor a builtin (%v)",
		nameOrPath, BuiltinNames())
}

// Stream labels for rng.DeriveSeed, so the workload's draws never collide
// with the engine's own Split(1)/Split(2) catalog and engine streams.
const (
	streamArrivals uint64 = 0x776c6f6164 // "wload"
	streamSessions uint64 = 0x77736573   // "wses"
)

// Schedule is a Spec bound to one concrete run: a horizon in seconds, a
// population, a catalog size, and a seed. It is immutable after Compile and
// safe for concurrent readers, provided each consumer draws from its own
// per-peer stream (PeerStream).
type Schedule struct {
	spec    Spec
	horizon float64
	peers   int
	objects int
	seed    uint64

	phaseStart []float64 // normalized start of each phase
	phaseLen   []float64 // normalized length of each phase
	meanMult   float64   // mean demand multiplier over [0, 1]
	maxMult    float64   // peak demand multiplier (thinning majorant)
	scale      float64   // arrivals/sec/peer at multiplier 1

	pop      *rng.PowerLaw
	cohortOf []int        // per peer: cohort index, or -1 for resident
	sessions [][2]float64 // per peer: arrive/depart in seconds
}

// Compile binds the spec to a run. Horizon is the run length in seconds
// (virtual for the simulator, wall for the swarm); peers is how many peers
// generate demand; objects is the catalog size the popularity model ranges
// over; seed keys every stream derivation.
func (s *Spec) Compile(horizon float64, peers, objects int, seed uint64) (*Schedule, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("workload: horizon = %v, want > 0", horizon)
	}
	if peers < 0 || objects <= 0 {
		return nil, fmt.Errorf("workload: peers = %d objects = %d, want peers >= 0 and objects > 0", peers, objects)
	}
	sc := &Schedule{
		spec:    *s,
		horizon: horizon,
		peers:   peers,
		objects: objects,
		seed:    seed,
		pop:     rng.NewPowerLaw(objects, s.Popularity.Zipf),
	}
	total := 0.0
	for _, p := range s.Phases {
		total += p.duration()
	}
	at := 0.0
	for _, p := range s.Phases {
		l := p.duration() / total
		sc.phaseStart = append(sc.phaseStart, at)
		sc.phaseLen = append(sc.phaseLen, l)
		at += l
		if m := p.peakMult(); m > sc.maxMult {
			sc.maxMult = m
		}
	}
	// The mean multiplier normalizes RequestsPerPeer: a deterministic
	// midpoint integral is exact enough for any of the supported shapes.
	const samples = 4096
	sum := 0.0
	for i := 0; i < samples; i++ {
		sum += sc.Mult((float64(i) + 0.5) / samples)
	}
	sc.meanMult = sum / samples
	if sc.meanMult <= 0 {
		return nil, fmt.Errorf("workload: demand curve is zero everywhere")
	}
	sc.scale = s.RequestsPerPeer / (horizon * sc.meanMult)
	sc.assignCohorts()
	return sc, nil
}

// duration returns the phase weight with the documented default.
func (p Phase) duration() float64 {
	if p.Duration > 0 {
		return p.Duration
	}
	return 1
}

// shapeParams returns the phase's effective level parameters with defaults
// applied.
func (p Phase) shapeParams() (level, peak, base, cycles, decay float64) {
	level, peak, base, cycles, decay = p.Level, p.Peak, p.Base, p.Cycles, p.Decay
	if level == 0 {
		level = 1
	}
	if cycles == 0 {
		cycles = 1
	}
	if decay == 0 {
		decay = 0.2
	}
	if peak == 0 {
		switch p.Shape {
		case ShapeDiurnal:
			peak, base = 1, 0.25
		case ShapeFlash:
			peak, base = 8, 0.5
		}
		if p.Base != 0 {
			base = p.Base
		}
	}
	return level, peak, base, cycles, decay
}

// peakMult is the phase's maximum demand multiplier (the thinning majorant).
func (p Phase) peakMult() float64 {
	level, peak, _, _, _ := p.shapeParams()
	if p.Shape == ShapeConstant {
		return level
	}
	return peak
}

// mult evaluates the phase's demand multiplier at local position u in [0, 1).
func (p Phase) mult(u float64) float64 {
	level, peak, base, cycles, decay := p.shapeParams()
	switch p.Shape {
	case ShapeDiurnal:
		return base + (peak-base)*0.5*(1-math.Cos(2*math.Pi*u*cycles))
	case ShapeFlash:
		return base + (peak-base)*math.Exp(-u/decay)
	default:
		return level
	}
}

// Mult evaluates the spec's demand multiplier at normalized time x in
// [0, 1); out-of-range times clamp to the curve's endpoints.
func (sc *Schedule) Mult(x float64) float64 {
	if x < 0 {
		x = 0
	}
	if x >= 1 {
		x = math.Nextafter(1, 0)
	}
	for i := len(sc.phaseStart) - 1; i >= 0; i-- {
		if x >= sc.phaseStart[i] {
			return sc.spec.Phases[i].mult((x - sc.phaseStart[i]) / sc.phaseLen[i])
		}
	}
	return sc.spec.Phases[0].mult(0)
}

// PeerStream derives peer i's private random stream. All of a peer's
// arrival and object draws must come from this one stream, in call order;
// distinct peers' streams are independent, which is what keeps the schedule
// deterministic under any interleaving of peers.
func (sc *Schedule) PeerStream(i int) *rng.RNG {
	return rng.New(rng.DeriveSeed(sc.seed, streamArrivals, uint64(i)))
}

// NextArrival returns the peer's next request time strictly after t, drawn
// from r by thinning a homogeneous Poisson process at the curve's peak
// rate. A return at or beyond Horizon means the peer generates no further
// requests this run.
func (sc *Schedule) NextArrival(t float64, r *rng.RNG) float64 {
	lambdaMax := sc.scale * sc.maxMult
	for {
		t += r.Exp(1 / lambdaMax)
		if t >= sc.horizon {
			return sc.horizon
		}
		if r.Float64()*sc.maxMult <= sc.Mult(t/sc.horizon) {
			return t
		}
	}
}

// SampleObject draws the object index ([0, Objects)) of a request issued at
// absolute time t, combining the Zipf rank draw with the drifted
// rank-to-object rotation.
func (sc *Schedule) SampleObject(t float64, r *rng.RNG) int {
	rank := sc.pop.Rank(r) - 1
	if d := sc.spec.Popularity.Drift; d > 0 {
		offset := int(d * (t / sc.horizon) * float64(sc.objects))
		rank = (rank + offset) % sc.objects
	}
	return rank
}

// assignCohorts partitions the population over the cohorts by cumulative
// rounding (the same scheme strategy.Mix.Counts uses, so fractions
// reproduce exactly at any population size) and draws each member's
// jittered session window from its private session stream.
func (sc *Schedule) assignCohorts() {
	sc.cohortOf = make([]int, sc.peers)
	sc.sessions = make([][2]float64, sc.peers)
	for i := range sc.cohortOf {
		sc.cohortOf[i] = -1
		sc.sessions[i] = [2]float64{0, sc.horizon}
	}
	cum, prev := 0.0, 0
	for k, c := range sc.spec.Cohorts {
		cum += c.Frac
		end := int(math.Round(cum * float64(sc.peers)))
		for i := prev; i < end && i < sc.peers; i++ {
			sc.cohortOf[i] = k
			r := rng.New(rng.DeriveSeed(sc.seed, streamSessions, uint64(i)))
			arrive := c.Arrive
			depart := c.depart()
			if c.Jitter > 0 {
				arrive += (2*r.Float64() - 1) * c.Jitter
				if c.Depart > 0 { // "stays to the end" does not jitter its end
					depart += (2*r.Float64() - 1) * c.Jitter
				}
			}
			arrive = math.Max(0, math.Min(arrive, 1))
			depart = math.Max(arrive, math.Min(depart, 1))
			sc.sessions[i] = [2]float64{arrive * sc.horizon, depart * sc.horizon}
		}
		prev = end
	}
}

// Session returns peer i's presence window in absolute seconds. Peers not
// claimed by a cohort are present for the whole run: (0, Horizon).
func (sc *Schedule) Session(i int) (arrive, depart float64) {
	w := sc.sessions[i]
	return w[0], w[1]
}
