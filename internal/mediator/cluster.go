package mediator

import (
	"errors"
	"fmt"
	"sync"

	"barter/internal/core"
	"barter/internal/transport"
)

// Cluster runs N mediator shards over one transport, partitioned by
// consistent hashing over object ID (see ShardFor). Every member serves the
// shared topology map, so a client bootstrapped with any one shard address
// can discover the rest and be redirected on misroute. By default shards
// hold their escrow and flagged-peer state in memory only — killing a shard
// loses it, exactly the failure the node-side client layer must absorb by
// retrying and failing over. With a DataDir every shard keeps a write-ahead
// log instead, so RestartShard recovers the full detection history. The tier
// is static: its size is fixed at construction, and a restart is the only
// topology change.
type Cluster struct {
	tr      transport.Transport
	oracle  DigestOracle
	dataDir string
	addrs   []string // requested listen addrs by index (mem name or host:0)

	// restartMu serializes restarts, so two never race to start the same
	// shard.
	restartMu sync.Mutex

	mu     sync.Mutex
	epoch  uint64
	live   []string    // current dialable addrs by index
	shards []*Mediator // nil while a shard is down
}

// ClusterOpts tune a mediator tier beyond its address list.
type ClusterOpts struct {
	// DataDir, when non-empty, gives every shard a write-ahead log under
	// it (see ShardOpts.DataDir), so kills and restarts forget nothing.
	DataDir string
}

// NewClusterOpts starts one mediator shard per listen address, all sharing
// the oracle. Restarts keep each shard's index.
func NewClusterOpts(tr transport.Transport, addrs []string, oracle DigestOracle, opts ClusterOpts) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("mediator: cluster needs at least one shard address")
	}
	if oracle == nil {
		return nil, errors.New("mediator: digest oracle is required")
	}
	c := &Cluster{
		tr:      tr,
		oracle:  oracle,
		dataDir: opts.DataDir,
		addrs:   append([]string(nil), addrs...),
		live:    make([]string, len(addrs)),
		shards:  make([]*Mediator, len(addrs)),
	}
	for i := range addrs {
		if err := c.startShard(i); err != nil {
			c.Close()
			return nil, fmt.Errorf("mediator: shard %d: %w", i, err)
		}
	}
	return c, nil
}

// snapshot is the Map callback handed to every shard: the current epoch and
// the dialable address of each member.
func (c *Cluster) snapshot() (uint64, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch, append([]string(nil), c.live...)
}

func (c *Cluster) startShard(i int) error {
	med, err := NewShard(c.tr, c.addrs[i], c.oracle, ShardOpts{
		Index:   i,
		Count:   len(c.addrs),
		Map:     c.snapshot,
		DataDir: c.dataDir,
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.shards[i] = med
	c.live[i] = med.Addr()
	c.epoch++
	c.mu.Unlock()
	return nil
}

// Shards returns the tier size.
func (c *Cluster) Shards() int { return len(c.addrs) }

// Epoch returns the topology version; it bumps on every shard (re)start.
func (c *Cluster) Epoch() uint64 {
	e, _ := c.snapshot()
	return e
}

// Addrs returns the current dialable address of every shard — the bootstrap
// seeds to hand a client.
func (c *Cluster) Addrs() []string {
	_, a := c.snapshot()
	return a
}

// Shard returns the live mediator at index i, or nil while it is down.
func (c *Cluster) Shard(i int) *Mediator {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.shards) {
		return nil
	}
	return c.shards[i]
}

// KillShard stops shard i abruptly, as a crash would: its in-memory escrow
// and flag counts are gone, though a DataDir-backed shard left its log
// behind for the next restart. It is a no-op on an already-down shard.
func (c *Cluster) KillShard(i int) {
	c.mu.Lock()
	if i < 0 || i >= len(c.shards) {
		c.mu.Unlock()
		return
	}
	med := c.shards[i]
	c.shards[i] = nil
	c.mu.Unlock()
	// Close outside the lock: it waits for serve goroutines, which may be
	// inside the Map callback taking c.mu.
	if med != nil {
		med.Close()
	}
}

// RestartShard brings shard i back — on the same name for in-memory
// transports, on a fresh port for TCP ":0" listens — and bumps the epoch so
// clients notice the topology changed. With a DataDir the shard replays its
// log and remembers every deposit and flag it held.
func (c *Cluster) RestartShard(i int) error {
	c.restartMu.Lock()
	defer c.restartMu.Unlock()
	if i < 0 || i >= len(c.addrs) {
		return fmt.Errorf("mediator: shard %d out of range", i)
	}
	c.KillShard(i)
	return c.startShard(i)
}

// Flagged sums how many times the tier's live shards caught peer cheating.
// Write-through replication may count one verdict on both owners; consumers
// only ask whether the sum is nonzero.
func (c *Cluster) Flagged(p core.PeerID) int {
	c.mu.Lock()
	shards := append([]*Mediator(nil), c.shards...)
	c.mu.Unlock()
	n := 0
	for _, m := range shards {
		if m != nil {
			n += m.Flagged(p)
		}
	}
	return n
}

// Close stops every shard.
func (c *Cluster) Close() {
	for i := range c.addrs {
		c.KillShard(i)
	}
}
