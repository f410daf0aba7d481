package mediator

import (
	"sort"
	"sync"

	"barter/internal/catalog"
)

// Consistent hashing over object IDs partitions the mediator tier: every
// shard projects a fixed set of virtual points onto a hash ring, an object
// hashes to a point on the same ring, and the object's primary shard is the
// first virtual point clockwise. The replica — the shard a client fails
// over to when the primary dies mid-verify — is the next distinct shard
// clockwise. That is what the ring buys a tier whose size is fixed: a
// shard's 64 points have different successors, so the replicas of the
// objects it is primary for are spread over the other shards, and when it
// dies its failover load spreads over the whole tier instead of piling onto
// one neighbor. The mapping is a pure function of (object, shard count):
// every client and every shard agrees on ownership without coordination.

// vnodesPerShard is the virtual-point count per shard; enough to keep the
// per-shard load imbalance in the low percent range at small tiers.
const vnodesPerShard = 64

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit hash
// that is identical on every platform (no seed, no architecture variance),
// which the ownership contract above requires.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type ringPoint struct {
	hash  uint64
	shard int
}

// ringCache memoizes the sorted ring per shard count; tiers are small and
// counts few, so the cache never grows past a handful of entries.
var ringCache sync.Map // int -> []ringPoint

func ringFor(count int) []ringPoint {
	if v, ok := ringCache.Load(count); ok {
		return v.([]ringPoint)
	}
	pts := make([]ringPoint, 0, count*vnodesPerShard)
	for s := 0; s < count; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			pts = append(pts, ringPoint{hash: mix64(uint64(s)<<32 | uint64(v)), shard: s})
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].hash != pts[j].hash {
			return pts[i].hash < pts[j].hash
		}
		return pts[i].shard < pts[j].shard // deterministic even on collision
	})
	ringCache.Store(count, pts)
	return pts
}

// ShardFor maps obj onto the hash ring of a count-shard tier, returning the
// primary owner and its replica. A tier of one (or fewer) shards trivially
// owns everything.
func ShardFor(obj catalog.ObjectID, count int) (primary, replica int) {
	if count <= 1 {
		return 0, 0
	}
	pts := ringFor(count)
	h := mix64(uint64(uint32(obj)))
	i := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= h })
	if i == len(pts) {
		i = 0
	}
	primary = pts[i].shard
	for j := 1; j < len(pts); j++ {
		if p := pts[(i+j)%len(pts)]; p.shard != primary {
			return primary, p.shard
		}
	}
	return primary, primary
}
