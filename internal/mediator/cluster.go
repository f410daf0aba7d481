package mediator

import (
	"errors"
	"fmt"
	"sync"

	"barter/internal/core"
	"barter/internal/transport"
)

// Cluster runs N mediator shards over one transport, partitioned by
// consistent hashing over object ID (see ShardFor). A shard's address is part
// of its identity: addresses are fixed at start, and a restart re-binds its
// own, so Addrs is the whole topology for the tier's life. By default shards
// hold their escrow and flagged-peer state in memory only — killing a shard
// loses it, exactly the failure the node-side client layer must absorb by
// retrying and failing over. With a DataDir every shard keeps a write-ahead
// log instead, so RestartShard recovers the full detection history.
type Cluster struct {
	tr      transport.Transport
	oracle  DigestOracle
	dataDir string

	// restartMu serializes restarts, so two never race to start the same
	// shard.
	restartMu sync.Mutex

	mu sync.Mutex
	// addrs holds each shard's address by index: the requested listen
	// address until the shard first binds, the bound one (a concrete port
	// for a TCP ":0" listen) from then on.
	addrs  []string
	shards []*Mediator // nil while a shard is down
	// gone sums the Counts of every shard instance killed so far.
	gone Counts
}

// ClusterOpts tune a mediator tier beyond its address list.
type ClusterOpts struct {
	// DataDir, when non-empty, gives every shard a write-ahead log under
	// it (see ShardOpts.DataDir), so kills and restarts forget nothing.
	DataDir string
}

// NewClusterOpts starts one mediator shard per listen address, all sharing
// the oracle. Restarts keep each shard's index and address.
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

func (c *Cluster) startShard(i int) error {
	c.mu.Lock()
	addr := c.addrs[i]
	c.mu.Unlock()
	med, err := NewShard(c.tr, addr, c.oracle, ShardOpts{
		Index:   i,
		Count:   len(c.shards),
		Map:     c.Addrs,
		DataDir: c.dataDir,
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.shards[i] = med
	c.addrs[i] = med.Addr()
	c.mu.Unlock()
	return nil
}

// Shards returns the tier size.
func (c *Cluster) Shards() int { return len(c.shards) }

// Addrs returns the dialable address of every shard in index order — the
// medclient.Config.Seeds of a client of this tier.
func (c *Cluster) Addrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.addrs...)
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
	// Close outside the lock: it waits for the replication links, which may
	// be inside the Map callback taking c.mu.
	if med != nil {
		med.Close()
		c.mu.Lock()
		c.gone.add(med.Counts())
		c.mu.Unlock()
	}
}

// RestartShard brings shard i back on the address it was first bound to: the
// same name in memory, the same port over TCP. A port taken meanwhile is the
// listen error it returns. With a DataDir the shard replays its log and
// remembers every deposit and flag it held.
func (c *Cluster) RestartShard(i int) error {
	c.restartMu.Lock()
	defer c.restartMu.Unlock()
	if i < 0 || i >= len(c.shards) {
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

// Counts sums the Counts of every shard instance the tier has run: the live
// ones so far and each killed one's, so no kill or restart loses a count. A
// shard being killed joins the sum once its Close returns.
func (c *Cluster) Counts() Counts {
	c.mu.Lock()
	n := c.gone
	shards := append([]*Mediator(nil), c.shards...)
	c.mu.Unlock()
	for _, m := range shards {
		if m != nil {
			n.add(m.Counts())
		}
	}
	return n
}

// Close stops every shard.
func (c *Cluster) Close() {
	for i := range c.shards {
		c.KillShard(i)
	}
}
