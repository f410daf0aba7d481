package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d identical draws from different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(99)
	s1 := root.Split(1)
	s2 := root.Split(2)
	if s1.Uint64() == s2.Uint64() {
		t.Fatal("split streams with different labels produced identical first draw")
	}
	// Splitting must not consume from the parent stream.
	rootCopy := New(99)
	rootCopy.Split(1)
	rootCopy.Split(2)
	orig := New(99)
	if orig.Uint64() != rootCopy.Uint64() {
		t.Fatal("Split consumed parent state")
	}
}

// TestSkipEqualsDraws pins Skip against the draws it stands for: after
// Skip(n) the next draw is the one n calls to Uint64 would be followed by,
// including past a wrap of the state and from a seed just below it.
func TestSkipEqualsDraws(t *testing.T) {
	for _, seed := range []uint64{0, 42, math.MaxUint64 - 3} {
		for _, n := range []uint64{0, 1, 128, 1 << 20} {
			skipped, drawn := New(seed), New(seed)
			skipped.Skip(n)
			for i := uint64(0); i < n; i++ {
				drawn.Uint64()
			}
			if got, want := skipped.Uint64(), drawn.Uint64(); got != want {
				t.Errorf("seed %d: Skip(%d) then Uint64 = %#x, %d draws then Uint64 = %#x", seed, n, got, n, want)
			}
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(3)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from %v", i, c, want)
		}
	}
}

func TestIntRange(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		v := r.IntRange(5, 40)
		if v < 5 || v > 40 {
			t.Fatalf("IntRange(5,40) = %d", v)
		}
	}
	if got := r.IntRange(3, 3); got != 3 {
		t.Fatalf("IntRange(3,3) = %d, want 3", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(5)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesElements(t *testing.T) {
	r := New(6)
	s := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range s {
		sum += v
	}
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	got := 0
	for _, v := range s {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed element sum: %d != %d", got, sum)
	}
}

func TestExpMean(t *testing.T) {
	r := New(8)
	const mean, draws = 42.0, 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		v := r.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	got := sum / draws
	if math.Abs(got-mean) > mean*0.02 {
		t.Fatalf("Exp sample mean %v, want ~%v", got, mean)
	}
}

func TestPowerLawUniformWhenFZero(t *testing.T) {
	p := NewPowerLaw(10, 0)
	for i := 1; i <= 10; i++ {
		if math.Abs(prob(p, i)-0.1) > 1e-12 {
			t.Fatalf("f=0 rank %d prob %v, want 0.1", i, prob(p, i))
		}
	}
}

func TestPowerLawZipfWhenFOne(t *testing.T) {
	p := NewPowerLaw(5, 1)
	// With f=1, p(i) proportional to 1/i: normalizer = 1+1/2+1/3+1/4+1/5.
	h := 1.0 + 0.5 + 1.0/3 + 0.25 + 0.2
	for i := 1; i <= 5; i++ {
		want := (1.0 / float64(i)) / h
		if math.Abs(prob(p, i)-want) > 1e-12 {
			t.Fatalf("f=1 rank %d prob %v, want %v", i, prob(p, i), want)
		}
	}
}

func TestPowerLawProbsSumToOne(t *testing.T) {
	for _, f := range []float64{0, 0.2, 0.5, 1} {
		p := NewPowerLaw(300, f)
		sum := 0.0
		for i := 1; i <= 300; i++ {
			sum += prob(p, i)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("f=%v probs sum to %v", f, sum)
		}
	}
}

func TestPowerLawRankInBounds(t *testing.T) {
	r := New(9)
	p := NewPowerLaw(37, 0.7)
	for i := 0; i < 100000; i++ {
		rank := p.Rank(r)
		if rank < 1 || rank > 37 {
			t.Fatalf("rank %d out of [1,37]", rank)
		}
	}
}

// searchRank is the reference for PowerLaw.rank: the binary search for the
// first cdf entry >= u that the guide table replaced.
func searchRank(p *PowerLaw, u float64) int {
	lo, hi := 0, p.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if p.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// TestPowerLawGuideEqualsBinarySearch holds the guide lookup to the draw ->
// rank mapping of the binary search, exactly: every figure is a function of
// that mapping. The draws that could tell the two apart sit on the cdf steps
// and on the guide-cell boundaries k/n, so each of those is tried with its
// float64 neighbour on either side, next to both ends of [0, 1) and a random
// sample.
func TestPowerLawGuideEqualsBinarySearch(t *testing.T) {
	r := New(33)
	below1 := math.Nextafter(1, 0)
	for _, f := range []float64{0, 0.2, 1, 2.5} {
		for n := 1; n <= 300; n++ {
			p := NewPowerLaw(n, f)
			check := func(u float64) {
				if u < 0 || u >= 1 {
					return
				}
				if got, want := p.rank(u), searchRank(p, u); got != want {
					t.Fatalf("f=%v n=%d u=%v: guide lookup gives rank %d, binary search %d", f, n, u, got, want)
				}
			}
			around := func(x float64) {
				check(math.Nextafter(x, 0))
				check(x)
				check(math.Nextafter(x, 2))
			}
			check(0)
			check(below1)
			for i := 0; i < n; i++ {
				around(p.cdf[i])
				around(float64(i) / float64(n))
			}
			for i := 0; i < 2000; i++ {
				check(r.Float64())
			}
		}
	}
}

func TestPowerLawEmpiricalMatchesAnalytic(t *testing.T) {
	r := New(10)
	p := NewPowerLaw(20, 0.8)
	const draws = 300000
	counts := make([]int, 21)
	for i := 0; i < draws; i++ {
		counts[p.Rank(r)]++
	}
	for i := 1; i <= 20; i++ {
		want := prob(p, i) * draws
		if math.Abs(float64(counts[i])-want) > 6*math.Sqrt(want)+1 {
			t.Fatalf("rank %d: observed %d, expected %v", i, counts[i], want)
		}
	}
}

func TestPowerLawMoreSkewedWithLargerF(t *testing.T) {
	flat := NewPowerLaw(100, 0.1)
	steep := NewPowerLaw(100, 1)
	if prob(steep, 1) <= prob(flat, 1) {
		t.Fatal("larger f did not increase top-rank probability")
	}
	if prob(steep, 100) >= prob(flat, 100) {
		t.Fatal("larger f did not decrease bottom-rank probability")
	}
}

func TestWeightedRespectsWeights(t *testing.T) {
	r := New(13)
	w := NewWeighted([]float64{1, 0, 3})
	const draws = 100000
	counts := make([]int, 3)
	for i := 0; i < draws; i++ {
		counts[w.Index(r)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio %v, want ~3", ratio)
	}
}

func TestWeightedPanics(t *testing.T) {
	cases := []struct {
		name string
		w    []float64
	}{
		{"empty", nil},
		{"negative", []float64{1, -1}},
		{"zero-sum", []float64{0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewWeighted(%v) did not panic", tc.w)
				}
			}()
			NewWeighted(tc.w)
		})
	}
}

func TestDeriveSeedPureAndDistinct(t *testing.T) {
	if a, b := DeriveSeed(7, 3, 1), DeriveSeed(7, 3, 1); a != b {
		t.Fatalf("DeriveSeed not pure: %d vs %d", a, b)
	}
	// Adjacent labels, adjacent bases, and different label depths must all
	// land on distinct seeds.
	seen := map[uint64]bool{}
	for base := uint64(0); base < 4; base++ {
		for job := uint64(0); job < 8; job++ {
			for rep := uint64(0); rep < 4; rep++ {
				s := DeriveSeed(base, job, rep)
				if seen[s] {
					t.Fatalf("collision at base=%d job=%d rep=%d", base, job, rep)
				}
				seen[s] = true
			}
		}
	}
	if DeriveSeed(1) == DeriveSeed(1, 0) {
		t.Fatal("label depth did not change the derived seed")
	}
}

func TestDeriveSeedMatchesSplitChain(t *testing.T) {
	// DeriveSeed is defined as chained Split, so the streams must agree.
	want := New(9).Split(4).Split(2)
	got := New(DeriveSeed(9, 4, 2))
	for i := 0; i < 10; i++ {
		if want.Uint64() != got.Uint64() {
			t.Fatalf("stream diverged at draw %d", i)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkPowerLawRank(b *testing.B) {
	r := New(1)
	p := NewPowerLaw(300, 0.2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Rank(r)
	}
}

func TestStreamMatchesDeriveSeed(t *testing.T) {
	a := Stream(42, 7, 3)
	b := New(DeriveSeed(42, 7, 3))
	for i := 0; i < 16; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("draw %d: Stream %d != New(DeriveSeed) %d", i, x, y)
		}
	}
	// Distinct labels must give statistically independent streams; at
	// minimum they may not collide on the first draws.
	if Stream(42, 7, 3).Uint64() == Stream(42, 7, 4).Uint64() {
		t.Fatal("adjacent labels collide on the first draw")
	}
}

// prob returns the probability of rank i (1-based) under p.
func prob(p *PowerLaw, i int) float64 {
	if i < 1 || i > p.n {
		return 0
	}
	if i == 1 {
		return p.cdf[0]
	}
	return p.cdf[i-1] - p.cdf[i-2]
}
