package metrics

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestStreamEmpty(t *testing.T) {
	var s Stream
	if s.n != 0 {
		t.Fatalf("n = %d, want 0", s.n)
	}
	for name, v := range map[string]float64{
		"Mean": s.Mean(), "Var": s.Var(),
	} {
		if !math.IsNaN(v) {
			t.Fatalf("%s on empty stream = %v, want NaN", name, v)
		}
	}
}

func TestStreamMoments(t *testing.T) {
	var s Stream
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		s.Add(x)
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	// Unbiased variance of this classic data set is 32/7.
	if got := s.Var(); math.Abs(got-32.0/7) > 1e-12 {
		t.Fatalf("Var = %v, want %v", got, 32.0/7)
	}
	if s.Sum() != 40 {
		t.Fatalf("Sum = %v, want 40", s.Sum())
	}
}

func TestStreamSingleObservation(t *testing.T) {
	var s Stream
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Sum() != 3.5 {
		t.Fatal("single-observation stats wrong")
	}
	if !math.IsNaN(s.Var()) {
		t.Fatalf("Var with one obs = %v, want NaN", s.Var())
	}
}

func TestStreamMatchesBatchMean(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		var s Stream
		sum := 0.0
		for _, x := range clean {
			s.Add(x)
			sum += x
		}
		want := sum / float64(len(clean))
		return math.Abs(s.Mean()-want) <= 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.9, 90}, {1, 100},
	}
	for _, tc := range cases {
		if got := s.Quantile(tc.q); got != tc.want {
			t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestSampleQuantileEmpty(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatal("Quantile on empty sample not NaN")
	}
}

func TestCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Add(x)
		}
		if s.N() == 0 {
			return true
		}
		pts := s.CDF(10)
		if len(pts) == 0 {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].F < pts[i-1].F || pts[i].V < pts[i-1].V {
				return false
			}
		}
		return pts[len(pts)-1].F == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFExactSmallSample(t *testing.T) {
	var s Sample
	for _, x := range []float64{3, 1, 2, 4} {
		s.Add(x)
	}
	pts := s.CDF(4)
	wantV := []float64{1, 2, 3, 4}
	wantF := []float64{0.25, 0.5, 0.75, 1}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	for i := range pts {
		if pts[i].V != wantV[i] || pts[i].F != wantF[i] {
			t.Fatalf("point %d = (%v,%v), want (%v,%v)", i, pts[i].V, pts[i].F, wantV[i], wantF[i])
		}
	}
}

func TestGroupedKeysInFirstSeenOrder(t *testing.T) {
	g := NewGrouped()
	g.Add("b", 1)
	g.Add("a", 2)
	g.Add("b", 3)
	keys := g.Keys()
	if len(keys) != 2 || keys[0] != "b" || keys[1] != "a" {
		t.Fatalf("keys = %v, want [b a]", keys)
	}
	if g.Get("b").N() != 2 || g.Get("a").N() != 1 {
		t.Fatal("group sizes wrong")
	}
	if g.Get("missing") != nil {
		t.Fatal("missing key returned non-nil")
	}
}

func TestTableAppendAndTSV(t *testing.T) {
	tab := &Table{Title: "demo", XLabel: "x", YLabel: "y"}
	tab.Append("s1", 1, 10)
	tab.Append("s2", 1, 20)
	tab.Append("s1", 2, 11)
	out := tab.TSV()
	if !strings.HasPrefix(out, "# demo\n") {
		t.Fatalf("missing title header: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), out)
	}
	if lines[1] != "x\ts1\ts2" {
		t.Fatalf("header = %q", lines[1])
	}
	if lines[2] != "1\t10\t20" {
		t.Fatalf("row 1 = %q", lines[2])
	}
	if lines[3] != "2\t11\t-" {
		t.Fatalf("row 2 = %q (missing value should be -)", lines[3])
	}
}

func TestTableDescendingXAxis(t *testing.T) {
	tab := &Table{Title: "desc", XLabel: "x"}
	// Figures 4 and 5 plot upload capacity from 140 down to 40.
	for _, x := range []float64{140, 120, 100, 80, 60, 40} {
		tab.Append("s", x, x/10)
	}
	lines := strings.Split(strings.TrimSpace(tab.TSV()), "\n")
	var xs []float64
	for _, l := range lines[2:] {
		x, err := strconv.ParseFloat(strings.Split(l, "\t")[0], 64)
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, x)
	}
	if !sort.IsSorted(sort.Reverse(sort.Float64Slice(xs))) {
		t.Fatalf("x axis not descending: %v", xs)
	}
}

func TestTableGet(t *testing.T) {
	tab := &Table{}
	tab.Append("a", 1, 2)
	if tab.Get("a") == nil || tab.Get("zzz") != nil {
		t.Fatal("Get misbehaved")
	}
}

func TestMeanCI95(t *testing.T) {
	if m, h := MeanCI95(nil); !math.IsNaN(m) || !math.IsNaN(h) {
		t.Fatalf("empty input: got (%v, %v), want NaNs", m, h)
	}
	if m, h := MeanCI95([]float64{3.5}); m != 3.5 || h != 0 {
		t.Fatalf("single value: got (%v, %v), want (3.5, 0)", m, h)
	}
	// n=4, mean 5, stddev 2: half-width = t(3df)*2/2 = 3.182.
	m, h := MeanCI95([]float64{3, 3, 7, 7})
	if m != 5 {
		t.Fatalf("mean = %v, want 5", m)
	}
	sem := math.Sqrt(16.0/3.0) / 2 // stddev/sqrt(n)
	if want := 3.182 * sem; math.Abs(h-want) > 1e-9 {
		t.Fatalf("half-width = %v, want %v", h, want)
	}
	// Identical observations carry zero spread.
	if _, h := MeanCI95([]float64{2, 2, 2}); h != 0 {
		t.Fatalf("constant sample: half-width %v, want 0", h)
	}
	// Large n falls back to the normal critical value.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i % 2)
	}
	_, h = MeanCI95(xs)
	var s Stream
	for _, x := range xs {
		s.Add(x)
	}
	if want := 1.96 * s.Stddev() / 10; math.Abs(h-want) > 1e-9 {
		t.Fatalf("normal-regime half-width = %v, want %v", h, want)
	}
}
