package mediator

import "barter/internal/core"

// HoldsEscrow reports whether shard i is up and holds the key deposited for
// (exchange, sender). Replication is asynchronous; failover tests wait on it
// before they kill the primary.
func (c *Cluster) HoldsEscrow(i int, exchange uint64, sender core.PeerID) bool {
	m := c.Shard(i)
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.deposits[depositKey{exchange: exchange, sender: sender}]
	return ok
}

// MaxInflight is serve's per-connection cap on requests running at once.
const MaxInflight = maxInflight

// ReplQueue is the capacity of a sibling link's queue.
const ReplQueue = replQueue

// LinkUp reports whether shard i's replication link to sibling target
// currently holds a connection.
func (c *Cluster) LinkUp(i, target int) bool {
	l := c.Shard(i).links[target]
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn != nil
}

// MaxVerifyReceipts bounds the receipts one audit may carry.
const MaxVerifyReceipts = maxVerifyReceipts
