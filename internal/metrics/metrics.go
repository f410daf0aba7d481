// Package metrics provides the statistics machinery the simulation study
// reports: streaming moments, empirical CDFs, and keyed collections of both,
// plus the plain-text series formatting used by the experiment harness.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Stream accumulates streaming mean and variance (Welford's algorithm) along
// with the sum. The zero value is ready to use.
type Stream struct {
	n        int64
	mean, m2 float64
	sum      float64
}

// Add records one observation.
func (s *Stream) Add(x float64) {
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
	s.sum += x
}

// Mean returns the sample mean, or NaN with no observations.
func (s *Stream) Mean() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.mean
}

// Sum returns the sum of all observations.
func (s *Stream) Sum() float64 { return s.sum }

// Var returns the unbiased sample variance, or NaN with fewer than two
// observations.
func (s *Stream) Var() float64 {
	if s.n < 2 {
		return math.NaN()
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Stream) Stddev() float64 { return math.Sqrt(s.Var()) }

// tCrit95 holds two-sided 95% Student-t critical values for 1..30 degrees of
// freedom; beyond 30 the normal approximation 1.96 is used.
var tCrit95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// MeanCI95 returns the sample mean of xs and the half-width of its 95%
// confidence interval (Student t for n <= 31, normal beyond). With no
// observations both are NaN; with one observation the half-width is 0 —
// replicated experiments opt into CI columns only when replication is on, so
// a single replica reports its value with no spread.
func MeanCI95(xs []float64) (mean, half float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	var s Stream
	for _, x := range xs {
		s.Add(x)
	}
	if len(xs) == 1 {
		return s.Mean(), 0
	}
	df := len(xs) - 1
	crit := 1.96
	if df <= len(tCrit95) {
		crit = tCrit95[df-1]
	}
	return s.Mean(), crit * s.Stddev() / math.Sqrt(float64(len(xs)))
}

// Sample retains every observation so quantiles and CDFs can be computed
// exactly. The per-run sample counts in this study are small (tens of
// thousands), so exact retention is preferable to sketching.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add records one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean, or NaN with no observations.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-th empirical quantile (nearest-rank), q in [0, 1].
// It returns NaN with no observations.
//
//barter:allow deadcode the nearest-rank reading the sim session-size test bounds its samples by
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	idx := int(math.Ceil(q*float64(len(s.xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return s.xs[idx]
}

// CDFPoint is one step of an empirical CDF.
type CDFPoint struct {
	X string // formatted abscissa
	V float64
	F float64 // cumulative fraction in (0, 1]
}

// CDF returns the empirical distribution function evaluated at up to points
// evenly spaced positions of the sorted sample (always including the
// maximum). The fractions are nondecreasing and end at 1.
func (s *Sample) CDF(points int) []CDFPoint {
	if len(s.xs) == 0 || points <= 0 {
		return nil
	}
	s.sort()
	if points > len(s.xs) {
		points = len(s.xs)
	}
	out := make([]CDFPoint, 0, points)
	for i := 1; i <= points; i++ {
		idx := i*len(s.xs)/points - 1
		f := float64(idx+1) / float64(len(s.xs))
		v := s.xs[idx]
		out = append(out, CDFPoint{X: fmt.Sprintf("%g", v), V: v, F: f})
	}
	return out
}

// Grouped keys independent Samples by string label, e.g. one distribution per
// traffic class ("non-exchange", "pairwise", "3-way", ...).
type Grouped struct {
	groups map[string]*Sample
	order  []string
}

// NewGrouped returns an empty keyed collection.
func NewGrouped() *Grouped {
	return &Grouped{groups: make(map[string]*Sample)}
}

// Add records an observation under key.
func (g *Grouped) Add(key string, x float64) {
	s, ok := g.groups[key]
	if !ok {
		s = &Sample{}
		g.groups[key] = s
		g.order = append(g.order, key)
	}
	s.Add(x)
}

// Keys returns the keys in first-seen order.
func (g *Grouped) Keys() []string {
	out := make([]string, len(g.order))
	copy(out, g.order)
	return out
}

// Get returns the sample for key, or nil if the key was never added.
func (g *Grouped) Get(key string) *Sample { return g.groups[key] }

// Series is a named sequence of (x, y) points: one plotted line of a paper
// figure.
type Series struct {
	Name   string
	Points []Point
}

// Point is a single (x, y) observation of a series.
type Point struct {
	X float64
	Y float64
}

// Table is a set of series sharing an x-axis, with axis labels; it is the
// in-memory form of one paper figure.
type Table struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// AddSeries appends a new named series and returns it.
func (t *Table) AddSeries(name string) *Series {
	s := &Series{Name: name}
	t.Series = append(t.Series, s)
	return s
}

// Append adds a point to the named series, creating it if needed.
func (t *Table) Append(name string, x, y float64) {
	for _, s := range t.Series {
		if s.Name == name {
			s.Points = append(s.Points, Point{X: x, Y: y})
			return
		}
	}
	s := t.AddSeries(name)
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Get returns the named series, or nil.
func (t *Table) Get(name string) *Series {
	for _, s := range t.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// TSV renders the table as tab-separated values: a comment header, a column
// header row, and one row per distinct x with one column per series. Missing
// values render as "-".
func (t *Table) TSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	fmt.Fprintf(&b, "%s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, "\t%s", s.Name)
	}
	b.WriteByte('\n')

	xs := t.xAxis()
	for _, x := range xs {
		fmt.Fprintf(&b, "%g", x)
		for _, s := range t.Series {
			y, ok := lookup(s, x)
			if ok {
				fmt.Fprintf(&b, "\t%.4g", y)
			} else {
				b.WriteString("\t-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// xAxis returns the sorted union of x values over all series, preserving the
// direction of the first series (the paper plots Figs 4-5 with a reversed
// x-axis; the harness appends points in plot order).
func (t *Table) xAxis() []float64 {
	seen := make(map[float64]bool)
	var xs []float64
	for _, s := range t.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	descending := false
	if len(t.Series) > 0 && len(t.Series[0].Points) > 1 {
		pts := t.Series[0].Points
		descending = pts[0].X > pts[len(pts)-1].X
	}
	sort.Float64s(xs)
	if descending {
		for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
			xs[i], xs[j] = xs[j], xs[i]
		}
	}
	return xs
}

func lookup(s *Series, x float64) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}
