// Package catalog implements the content and workload model of the paper's
// simulation study (Section IV-A), which follows the popularity model of
// Schlosser, Condie & Kamvar ("Simulating a P2P file-sharing network").
//
// Objects are organized in categories. The popularity of the category of
// rank i is proportional to i^-f, and within each category the popularity of
// the object of rank i is likewise proportional to i^-f. Each peer is
// interested in a small set of categories chosen at initialization time and
// weights them with a local preference distribution of uniformly random
// weights, independent of global popularity. A request first draws a
// category from the peer's local preferences and then an object from that
// category's object-popularity distribution.
package catalog

import (
	"fmt"

	"barter/internal/rng"
)

// ObjectID identifies an object (a file) in the catalog. IDs are dense in
// [0, NumObjects).
type ObjectID int32

// CategoryID identifies a content category. IDs are dense in
// [0, Config.Categories).
type CategoryID int32

// Config holds the workload-model parameters of Table II.
type Config struct {
	// Categories is the number of content categories (Table II: 300).
	Categories int
	// ObjectsPerCategoryMin/Max bound the uniform draw of each category's
	// size (Table II: uniform(1, 300)).
	ObjectsPerCategoryMin int
	ObjectsPerCategoryMax int
	// CategoryFactor is the exponent f of the category popularity
	// distribution (Table II: 0.2).
	CategoryFactor float64
	// ObjectFactor is the exponent f of the per-category object popularity
	// distribution (Table II: 0.2).
	ObjectFactor float64
	// CategoriesPerPeerMin/Max bound the uniform draw of how many categories
	// a peer is interested in (Table II: uniform(1, 8)).
	CategoriesPerPeerMin int
	CategoriesPerPeerMax int
}

// Validate reports the first configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.Categories <= 0:
		return fmt.Errorf("catalog: Categories = %d, want > 0", c.Categories)
	case c.ObjectsPerCategoryMin <= 0 || c.ObjectsPerCategoryMax < c.ObjectsPerCategoryMin:
		return fmt.Errorf("catalog: ObjectsPerCategory range [%d, %d] invalid",
			c.ObjectsPerCategoryMin, c.ObjectsPerCategoryMax)
	case c.CategoryFactor < 0 || c.ObjectFactor < 0:
		return fmt.Errorf("catalog: negative popularity factor")
	case c.CategoriesPerPeerMin <= 0 || c.CategoriesPerPeerMax < c.CategoriesPerPeerMin:
		return fmt.Errorf("catalog: CategoriesPerPeer range [%d, %d] invalid",
			c.CategoriesPerPeerMin, c.CategoriesPerPeerMax)
	case c.CategoriesPerPeerMax > c.Categories:
		return fmt.Errorf("catalog: CategoriesPerPeerMax %d exceeds Categories %d",
			c.CategoriesPerPeerMax, c.Categories)
	}
	return nil
}

// Catalog is the immutable global content universe of one simulation run.
type Catalog struct {
	cfg        Config
	objects    [][]ObjectID // objects[c] lists category c's objects by rank (rank 1 first)
	categoryOf []CategoryID // indexed by ObjectID
	catPop     *rng.PowerLaw
	objPop     []*rng.PowerLaw // objPop[c] ranks category c's objects; equal-sized categories share one
	catRank    []CategoryID    // catRank[i] = category with popularity rank i+1
}

// New builds a catalog: category sizes are drawn from cfg's uniform range,
// and the popularity rank order of categories is a random permutation
// (category IDs carry no meaning; ranks do).
func New(cfg Config, r *rng.RNG) (*Catalog, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Catalog{
		cfg:     cfg,
		objects: make([][]ObjectID, cfg.Categories),
		catPop:  rng.NewPowerLaw(cfg.Categories, cfg.CategoryFactor),
		objPop:  make([]*rng.PowerLaw, cfg.Categories),
		catRank: make([]CategoryID, cfg.Categories),
	}
	for i, p := range r.Perm(cfg.Categories) {
		c.catRank[i] = CategoryID(p)
	}
	bySize := make(map[int]*rng.PowerLaw) // one sampler per distinct category size
	var next ObjectID
	for cat := 0; cat < cfg.Categories; cat++ {
		n := r.IntRange(cfg.ObjectsPerCategoryMin, cfg.ObjectsPerCategoryMax)
		objs := make([]ObjectID, n)
		for i := range objs {
			objs[i] = next
			c.categoryOf = append(c.categoryOf, CategoryID(cat))
			next++
		}
		c.objects[cat] = objs
		if bySize[n] == nil {
			bySize[n] = rng.NewPowerLaw(n, cfg.ObjectFactor)
		}
		c.objPop[cat] = bySize[n]
	}
	return c, nil
}

// NumObjects returns the total number of objects.
func (c *Catalog) NumObjects() int { return len(c.categoryOf) }

// Category returns the category of object o.
func (c *Catalog) Category(o ObjectID) CategoryID { return c.categoryOf[o] }

// CategorySize returns the number of objects in category cat.
func (c *Catalog) CategorySize(cat CategoryID) int { return len(c.objects[cat]) }

// Interest is one peer's content taste: the categories it is interested in
// and its local preference weights over them.
type Interest struct {
	categories []CategoryID
	pref       *rng.Weighted
}

// Categories returns the peer's categories. The returned slice must not be
// modified.
func (in *Interest) Categories() []CategoryID { return in.categories }

// NewInterest draws a peer interest profile: the number of categories is
// uniform in the configured range, the categories themselves are drawn
// without replacement from the global category popularity distribution (so
// popular categories attract more peers), and the local preference weights
// are uniform random, independent of global popularity, exactly as in the
// paper.
func (c *Catalog) NewInterest(r *rng.RNG) *Interest {
	k := r.IntRange(c.cfg.CategoriesPerPeerMin, c.cfg.CategoriesPerPeerMax)
	return c.NewInterestK(k, r)
}

// NewInterestK is NewInterest with an explicit category count, used by the
// Figure 11 sweep over categories per peer.
func (c *Catalog) NewInterestK(k int, r *rng.RNG) *Interest {
	if k > c.cfg.Categories {
		k = c.cfg.Categories
	}
	seen := make(map[CategoryID]bool, k)
	cats := make([]CategoryID, 0, k)
	for len(cats) < k {
		cat := c.catRank[c.catPop.Rank(r)-1]
		if seen[cat] {
			continue
		}
		seen[cat] = true
		cats = append(cats, cat)
	}
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = r.Float64()
		if weights[i] == 0 {
			weights[i] = 0.5
		}
	}
	return &Interest{categories: cats, pref: rng.NewWeighted(weights)}
}

// SampleObject draws one object request for a peer with interest in:
// category by local preference, object by within-category popularity rank.
func (c *Catalog) SampleObject(in *Interest, r *rng.RNG) ObjectID {
	cat := in.categories[in.pref.Index(r)]
	return c.objects[cat][c.objPop[cat].Rank(r)-1]
}

// SampleMiss draws requests until one is not excluded (not already stored or
// pending), mirroring the paper's "ignore hits and continue to generate
// candidate requests until a miss is found". It gives up after maxTries to
// stay robust when a peer owns nearly everything it is interested in; the
// second return value reports success.
func (c *Catalog) SampleMiss(in *Interest, r *rng.RNG, excluded func(ObjectID) bool, maxTries int) (ObjectID, bool) {
	for i := 0; i < maxTries; i++ {
		o := c.SampleObject(in, r)
		if !excluded(o) {
			return o, true
		}
	}
	return 0, false
}

// InitialStore draws up to capacity distinct objects from the peer's
// interest profile, modelling the paper's initial placement "based on the
// peer's category preferences". Fewer than capacity objects are returned
// when the peer's categories are small.
func (c *Catalog) InitialStore(in *Interest, capacity int, r *rng.RNG) []ObjectID {
	total := 0
	for _, cat := range in.categories {
		total += len(c.objects[cat])
	}
	if capacity > total {
		capacity = total
	}
	have := make(map[ObjectID]bool, capacity)
	out := make([]ObjectID, 0, capacity)
	// Draws follow the request distribution; cap the attempts so tiny
	// categories cannot stall initialization.
	for tries := 0; len(out) < capacity && tries < 50*capacity+1000; tries++ {
		o := c.SampleObject(in, r)
		if have[o] {
			continue
		}
		have[o] = true
		out = append(out, o)
	}
	return out
}
