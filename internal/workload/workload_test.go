package workload

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

func TestBuiltinsValidate(t *testing.T) {
	for _, name := range BuiltinNames() {
		s, ok := Builtin(name)
		if !ok {
			t.Fatalf("builtin %q missing", name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("builtin %q: %v", name, err)
		}
		if s.Name != name {
			t.Errorf("builtin %q: Name = %q", name, s.Name)
		}
	}
	if _, ok := Builtin("nope"); ok {
		t.Error("unknown builtin resolved")
	}
}

func TestBuiltinReturnsCopy(t *testing.T) {
	a, _ := Builtin("flash")
	a.RequestsPerPeer = 999
	a.Phases[0].Level = 123
	b, _ := Builtin("flash")
	if b.RequestsPerPeer == 999 || b.Phases[0].Level == 123 {
		t.Error("Builtin shares state between calls")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	orig, _ := Builtin("waves")
	parsed, err := ParseSpec(orig.JSON())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Name != orig.Name || len(parsed.Phases) != len(orig.Phases) ||
		len(parsed.Cohorts) != len(orig.Cohorts) ||
		parsed.Popularity != orig.Popularity {
		t.Errorf("round trip mismatch: %+v vs %+v", parsed, orig)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Spec { s, _ := Builtin("constant"); return s }
	cases := []struct {
		name   string
		break_ func(*Spec)
	}{
		{"no requests", func(s *Spec) { s.RequestsPerPeer = 0 }},
		{"no phases", func(s *Spec) { s.Phases = nil }},
		{"bad shape", func(s *Spec) { s.Phases[0].Shape = "square" }},
		{"negative level", func(s *Spec) { s.Phases[0].Level = -1 }},
		{"base above peak", func(s *Spec) { s.Phases[0].Peak = 1; s.Phases[0].Base = 2 }},
		{"negative zipf", func(s *Spec) { s.Popularity.Zipf = -1 }},
		{"cohort frac", func(s *Spec) { s.Cohorts = []Cohort{{Frac: 1.5, Arrive: 0}} }},
		{"cohort window", func(s *Spec) { s.Cohorts = []Cohort{{Frac: 0.5, Arrive: 0.8, Depart: 0.5}} }},
		{"cohort sum", func(s *Spec) {
			s.Cohorts = []Cohort{{Frac: 0.7, Arrive: 0}, {Frac: 0.7, Arrive: 0.1}}
		}},
	}
	for _, tc := range cases {
		s := base()
		tc.break_(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken spec", tc.name)
		}
	}
}

func TestLoadBuiltinAndFile(t *testing.T) {
	if _, err := Load("flash"); err != nil {
		t.Fatalf("Load builtin: %v", err)
	}
	dir := t.TempDir()
	path := dir + "/spec.json"
	s, _ := Builtin("diurnal")
	if err := os.WriteFile(path, s.JSON(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load file: %v", err)
	}
	if got.Name != "diurnal" {
		t.Errorf("loaded spec name %q", got.Name)
	}
	if _, err := Load(dir + "/missing.json"); err == nil {
		t.Error("Load of missing file+name succeeded")
	}
}

func TestCompileDeterminism(t *testing.T) {
	spec, _ := Builtin("waves")
	a, err := spec.Compile(1000, 40, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := spec.Compile(1000, 40, 64, 7)
	for p := 0; p < 40; p++ {
		ra, rb := a.PeerStream(p), b.PeerStream(p)
		var ta, tb float64
		for i := 0; i < 50; i++ {
			ta, tb = a.NextArrival(ta, ra), b.NextArrival(tb, rb)
			if ta != tb {
				t.Fatalf("peer %d arrival %d: %v vs %v", p, i, ta, tb)
			}
			if ta >= 1000 {
				break
			}
			if oa, ob := a.SampleObject(ta, ra), b.SampleObject(tb, rb); oa != ob {
				t.Fatalf("peer %d object %d: %d vs %d", p, i, oa, ob)
			}
		}
		aa, ad := a.Session(p)
		ba, bd := b.Session(p)
		if aa != ba || ad != bd {
			t.Fatalf("peer %d session mismatch", p)
		}
	}
	// Different peers see different streams.
	r0, r1 := a.PeerStream(0), a.PeerStream(1)
	if a.NextArrival(0, r0) == a.NextArrival(0, r1) {
		t.Error("peer streams 0 and 1 coincide")
	}
}

// TestArrivalVolume checks the RequestsPerPeer anchor: the mean arrival
// count over many peers must land near the spec's target for every builtin
// shape and for very different horizons (the normalized-time property).
func TestArrivalVolume(t *testing.T) {
	for _, name := range BuiltinNames() {
		spec, _ := Builtin(name)
		spec.Cohorts = nil // count raw demand, not session-clipped demand
		for _, horizon := range []float64{60, 30000} {
			sc, err := spec.Compile(horizon, 200, 500, 11)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for p := 0; p < 200; p++ {
				r := sc.PeerStream(p)
				for at := sc.NextArrival(0, r); at < horizon; at = sc.NextArrival(at, r) {
					total++
					sc.SampleObject(at, r)
				}
			}
			mean := float64(total) / 200
			if math.Abs(mean-spec.RequestsPerPeer) > 0.15*spec.RequestsPerPeer {
				t.Errorf("%s @ horizon %v: mean arrivals %.1f, want ~%v", name, horizon, mean, spec.RequestsPerPeer)
			}
		}
	}
}

// TestFlashShape checks that the flash builtin front-loads its spike phase:
// the spike quarter of the horizon must carry several times the demand of
// the cooled-down final quarter.
func TestFlashShape(t *testing.T) {
	spec, _ := Builtin("flash")
	sc, err := spec.Compile(10000, 100, 200, 3)
	if err != nil {
		t.Fatal(err)
	}
	var early, late int
	for p := 0; p < 100; p++ {
		r := sc.PeerStream(p)
		for at := sc.NextArrival(0, r); at < 10000; at = sc.NextArrival(at, r) {
			sc.SampleObject(at, r)
			// The builtin's spike phase starts at 1/4 of the horizon.
			switch {
			case at >= 2500 && at < 5000:
				early++
			case at >= 7500:
				late++
			}
		}
	}
	if early < 3*late {
		t.Errorf("flash crowd not front-loaded: spike quarter %d vs final quarter %d", early, late)
	}
}

func TestCohortSessions(t *testing.T) {
	spec, _ := Builtin("waves")
	sc, err := spec.Compile(1000, 100, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for p := 0; p < 100; p++ {
		name := sc.CohortName(p)
		counts[name]++
		arrive, depart := sc.Session(p)
		switch name {
		case "":
			if arrive != 0 || depart != 1000 {
				t.Errorf("resident peer %d has window [%v, %v]", p, arrive, depart)
			}
		case "early":
			if arrive > 0.1*1000 || depart > 0.7*1000 {
				t.Errorf("early peer %d window [%v, %v]", p, arrive, depart)
			}
		case "late":
			if arrive < 0.3*1000 || depart != 1000 {
				t.Errorf("late peer %d window [%v, %v]", p, arrive, depart)
			}
		}
		if depart < arrive {
			t.Errorf("peer %d departs before arriving", p)
		}
	}
	if counts["early"] != 25 || counts["late"] != 25 || counts[""] != 50 {
		t.Errorf("cohort counts %v, want early=25 late=25 resident=50", counts)
	}
}

// TestPopularityDrift checks that with Drift set, the most popular object
// early in the run differs from the most popular object late in the run.
func TestPopularityDrift(t *testing.T) {
	spec, _ := Builtin("constant")
	spec.Popularity = Popularity{Zipf: 1.5, Drift: 1}
	sc, err := spec.Compile(1000, 1, 100, 9)
	if err != nil {
		t.Fatal(err)
	}
	top := func(at float64) int {
		r := sc.PeerStream(0)
		counts := map[int]int{}
		for i := 0; i < 4000; i++ {
			counts[sc.SampleObject(at, r)]++
		}
		best, bestN := -1, 0
		for o, n := range counts {
			if n > bestN {
				best, bestN = o, n
			}
		}
		return best
	}
	if a, b := top(10), top(990); a == b {
		t.Errorf("popularity did not drift: top object %d at both ends", a)
	}
}

func TestScheduleRate(t *testing.T) {
	spec, _ := Builtin("constant")
	sc, err := spec.Compile(100, 10, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Constant shape: rate is flat and integrates to RequestsPerPeer.
	rate := func(t float64) float64 { return sc.scale * sc.Mult(t/sc.horizon) }
	if r0, r1 := rate(10), rate(90); math.Abs(r0-r1) > 1e-12 {
		t.Errorf("constant rate varies: %v vs %v", r0, r1)
	}
	if got := rate(50) * 100; math.Abs(got-spec.RequestsPerPeer) > 1e-6 {
		t.Errorf("rate integrates to %v, want %v", got, spec.RequestsPerPeer)
	}
	if sc.horizon != 100 || sc.peers != 10 || sc.objects != 10 {
		t.Error("accessor mismatch")
	}
}

func TestCompileRejects(t *testing.T) {
	spec, _ := Builtin("constant")
	if _, err := spec.Compile(0, 10, 10, 1); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := spec.Compile(100, 10, 0, 1); err == nil {
		t.Error("zero objects accepted")
	}
	dead := &Spec{RequestsPerPeer: 1, Phases: []Phase{{Shape: ShapeFlash, Peak: 0.0001, Base: 0}}}
	// A near-zero curve still compiles; a truly broken spec fails Validate first.
	if _, err := dead.Compile(100, 10, 10, 1); err != nil {
		t.Errorf("tiny curve rejected: %v", err)
	}
}

func TestSpecJSONParseErrors(t *testing.T) {
	if _, err := ParseSpec([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ParseSpec([]byte(`{"requests_per_peer": 0}`)); err == nil {
		t.Error("invalid spec accepted")
	}
	if !strings.Contains(string((&Spec{Name: "x", RequestsPerPeer: 1, Phases: []Phase{{Shape: ShapeConstant}}}).JSON()), `"constant"`) {
		t.Error("JSON missing phase shape")
	}
}

// JSON encodes the spec as indented JSON (the format ParseSpec reads).
func (s *Spec) JSON() []byte {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("workload: encode spec: %v", err)) // no unmarshalable fields exist
	}
	return append(out, '\n')
}

// CohortName returns the cohort label of peer i, or "" for resident peers.
func (sc *Schedule) CohortName(i int) string {
	k := sc.cohortOf[i]
	if k < 0 {
		return ""
	}
	if n := sc.spec.Cohorts[k].Name; n != "" {
		return n
	}
	return fmt.Sprintf("cohort-%d", k)
}
