package catalog

import (
	"testing"
	"testing/quick"

	"barter/internal/rng"
)

func testConfig() Config {
	return Config{
		Categories:            30,
		ObjectsPerCategoryMin: 1,
		ObjectsPerCategoryMax: 50,
		CategoryFactor:        0.2,
		ObjectFactor:          0.2,
		CategoriesPerPeerMin:  1,
		CategoriesPerPeerMax:  8,
	}
}

func mustNew(t *testing.T, cfg Config, seed uint64) *Catalog {
	t.Helper()
	c, err := New(cfg, rng.New(seed))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", func(*Config) {}, true},
		{"no categories", func(c *Config) { c.Categories = 0 }, false},
		{"bad object range", func(c *Config) { c.ObjectsPerCategoryMax = 0 }, false},
		{"inverted object range", func(c *Config) { c.ObjectsPerCategoryMin = 10; c.ObjectsPerCategoryMax = 5 }, false},
		{"negative factor", func(c *Config) { c.CategoryFactor = -1 }, false},
		{"bad peer categories", func(c *Config) { c.CategoriesPerPeerMin = 0 }, false},
		{"peer categories exceed catalog", func(c *Config) { c.CategoriesPerPeerMax = 99 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("expected error, got nil")
			}
		})
	}
}

func TestCatalogShape(t *testing.T) {
	cfg := testConfig()
	c := mustNew(t, cfg, 1)
	if len(c.objects) != cfg.Categories {
		t.Fatalf("%d categories, want %d", len(c.objects), cfg.Categories)
	}
	total := 0
	for cat := CategoryID(0); int(cat) < len(c.objects); cat++ {
		n := c.CategorySize(cat)
		if n < cfg.ObjectsPerCategoryMin || n > cfg.ObjectsPerCategoryMax {
			t.Fatalf("category %d size %d out of range", cat, n)
		}
		total += n
	}
	if c.NumObjects() != total {
		t.Fatalf("NumObjects = %d, want %d", c.NumObjects(), total)
	}
}

func TestObjectCategoryConsistency(t *testing.T) {
	c := mustNew(t, testConfig(), 2)
	for cat := CategoryID(0); int(cat) < len(c.objects); cat++ {
		for _, o := range c.Objects(cat) {
			if c.Category(o) != cat {
				t.Fatalf("object %d reports category %d, listed under %d", o, c.Category(o), cat)
			}
		}
	}
}

func TestObjectIDsDense(t *testing.T) {
	c := mustNew(t, testConfig(), 3)
	seen := make([]bool, c.NumObjects())
	for cat := CategoryID(0); int(cat) < len(c.objects); cat++ {
		for _, o := range c.Objects(cat) {
			if int(o) < 0 || int(o) >= len(seen) || seen[o] {
				t.Fatalf("object id %d out of range or duplicated", o)
			}
			seen[o] = true
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("object id %d never assigned", id)
		}
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := mustNew(t, testConfig(), 42)
	b := mustNew(t, testConfig(), 42)
	if a.NumObjects() != b.NumObjects() {
		t.Fatalf("object counts differ: %d vs %d", a.NumObjects(), b.NumObjects())
	}
	for o := ObjectID(0); int(o) < a.NumObjects(); o++ {
		if a.Category(o) != b.Category(o) {
			t.Fatalf("category of %d differs", o)
		}
	}
}

func TestInterestCategoryCount(t *testing.T) {
	cfg := testConfig()
	c := mustNew(t, cfg, 4)
	r := rng.New(5)
	for i := 0; i < 200; i++ {
		in := c.NewInterest(r)
		k := len(in.Categories())
		if k < cfg.CategoriesPerPeerMin || k > cfg.CategoriesPerPeerMax {
			t.Fatalf("interest has %d categories, want [%d, %d]",
				k, cfg.CategoriesPerPeerMin, cfg.CategoriesPerPeerMax)
		}
		seen := make(map[CategoryID]bool)
		for _, cat := range in.Categories() {
			if seen[cat] {
				t.Fatal("duplicate category in interest")
			}
			seen[cat] = true
		}
	}
}

func TestNewInterestKClampsToCatalog(t *testing.T) {
	cfg := testConfig()
	cfg.Categories = 3
	cfg.CategoriesPerPeerMax = 3
	c := mustNew(t, cfg, 6)
	in := c.NewInterestK(10, rng.New(7))
	if len(in.Categories()) != 3 {
		t.Fatalf("clamped interest has %d categories, want 3", len(in.Categories()))
	}
}

func TestSampleObjectStaysInInterest(t *testing.T) {
	c := mustNew(t, testConfig(), 8)
	r := rng.New(9)
	in := c.NewInterest(r)
	allowed := make(map[CategoryID]bool)
	for _, cat := range in.Categories() {
		allowed[cat] = true
	}
	for i := 0; i < 5000; i++ {
		o := c.SampleObject(in, r)
		if !allowed[c.Category(o)] {
			t.Fatalf("sampled object %d from category %d outside interest", o, c.Category(o))
		}
	}
}

// TestSampleObjectPinnedDraws pins the draw -> object mapping: the first 64
// requests of one seeded catalog and interest (4 categories of different
// sizes), captured before the per-category sampler table and rng.PowerLaw's
// guide table replaced the size-keyed map and the binary search. Every figure
// is a function of this sequence, so a sampler change that shifts it must fail
// here, next to its cause, rather than in a golden TSV.
func TestSampleObjectPinnedDraws(t *testing.T) {
	want := []ObjectID{
		109, 655, 498, 131, 123, 491, 70, 132, 640, 132, 135, 71, 121, 109, 642, 71,
		645, 70, 121, 497, 491, 109, 122, 120, 122, 480, 131, 119, 129, 503, 645, 71,
		124, 642, 120, 489, 128, 108, 71, 130, 134, 71, 650, 109, 656, 652, 70, 134,
		490, 494, 650, 71, 501, 645, 645, 121, 476, 489, 72, 488, 135, 477, 493, 70,
	}
	c := mustNew(t, testConfig(), 7)
	r := rng.New(7)
	in := c.NewInterest(r)
	for i, w := range want {
		if got := c.SampleObject(in, r); got != w {
			t.Fatalf("draw %d = object %d, pinned %d: the sampler's draw -> rank mapping moved", i, got, w)
		}
	}
}

// TestSampleObjectDrawsTwo pins the cost of one request draw: a category by
// local preference and a rank within it, one Uint64 each. The simulator
// skips a doomed SampleMiss by advancing its stream by exactly that many
// draws per try, so a draw that changes this count must fail here rather
// than silently shift every figure.
func TestSampleObjectDrawsTwo(t *testing.T) {
	c := mustNew(t, testConfig(), 7)
	for seed := uint64(0); seed < 20; seed++ {
		r := rng.New(seed)
		in := c.NewInterest(r)
		ref := *r
		for i := 0; i < 200; i++ {
			c.SampleObject(in, r)
			ref.Uint64()
			ref.Uint64()
			if *r != ref {
				t.Fatalf("seed %d draw %d: SampleObject did not advance the stream by exactly two Uint64 draws", seed, i)
			}
		}
	}
}

func TestSampleObjectPrefersPopularRanks(t *testing.T) {
	cfg := testConfig()
	cfg.Categories = 1
	cfg.CategoriesPerPeerMin, cfg.CategoriesPerPeerMax = 1, 1
	cfg.ObjectsPerCategoryMin, cfg.ObjectsPerCategoryMax = 100, 100
	cfg.ObjectFactor = 1
	c := mustNew(t, cfg, 10)
	r := rng.New(11)
	in := c.NewInterest(r)
	counts := make(map[ObjectID]int)
	for i := 0; i < 100000; i++ {
		counts[c.SampleObject(in, r)]++
	}
	objs := c.Objects(0)
	if counts[objs[0]] <= counts[objs[99]] {
		t.Fatalf("rank-1 count %d not above rank-100 count %d",
			counts[objs[0]], counts[objs[99]])
	}
}

func TestSampleMissSkipsExcluded(t *testing.T) {
	c := mustNew(t, testConfig(), 12)
	r := rng.New(13)
	in := c.NewInterest(r)
	banned := c.SampleObject(in, r)
	for i := 0; i < 1000; i++ {
		o, ok := c.SampleMiss(in, r, func(o ObjectID) bool { return o == banned }, 100)
		if !ok {
			t.Fatal("SampleMiss gave up with a single exclusion")
		}
		if o == banned {
			t.Fatal("SampleMiss returned an excluded object")
		}
	}
}

func TestSampleMissGivesUpWhenAllExcluded(t *testing.T) {
	c := mustNew(t, testConfig(), 14)
	r := rng.New(15)
	in := c.NewInterest(r)
	if _, ok := c.SampleMiss(in, r, func(ObjectID) bool { return true }, 50); ok {
		t.Fatal("SampleMiss succeeded although everything was excluded")
	}
}

func TestInitialStoreDistinctAndInInterest(t *testing.T) {
	c := mustNew(t, testConfig(), 16)
	r := rng.New(17)
	f := func(capRaw uint8, seed uint16) bool {
		capacity := int(capRaw%40) + 1
		in := c.NewInterest(rng.New(uint64(seed)))
		store := c.InitialStore(in, capacity, r)
		if len(store) > capacity {
			return false
		}
		allowed := make(map[CategoryID]bool)
		for _, cat := range in.Categories() {
			allowed[cat] = true
		}
		seen := make(map[ObjectID]bool)
		for _, o := range store {
			if seen[o] || !allowed[c.Category(o)] {
				return false
			}
			seen[o] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestInitialStoreCapacityExceedsUniverse(t *testing.T) {
	cfg := testConfig()
	cfg.Categories = 2
	cfg.ObjectsPerCategoryMin, cfg.ObjectsPerCategoryMax = 2, 2
	cfg.CategoriesPerPeerMin, cfg.CategoriesPerPeerMax = 1, 2
	c := mustNew(t, cfg, 18)
	r := rng.New(19)
	in := c.NewInterestK(2, r)
	store := c.InitialStore(in, 100, r)
	if len(store) != 4 {
		t.Fatalf("store has %d objects, want the whole 4-object universe", len(store))
	}
}

func BenchmarkSampleObject(b *testing.B) {
	cfg := Config{
		Categories:            300,
		ObjectsPerCategoryMin: 1,
		ObjectsPerCategoryMax: 300,
		CategoryFactor:        0.2,
		ObjectFactor:          0.2,
		CategoriesPerPeerMin:  1,
		CategoriesPerPeerMax:  8,
	}
	r := rng.New(1)
	c, err := New(cfg, r)
	if err != nil {
		b.Fatal(err)
	}
	in := c.NewInterest(r)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.SampleObject(in, r)
	}
}

// Objects returns category cat's objects in rank order. The returned slice
// must not be modified.
func (c *Catalog) Objects(cat CategoryID) []ObjectID { return c.objects[cat] }
