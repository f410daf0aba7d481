package barter

import (
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/medclient"
	"barter/internal/mediator"
	"barter/internal/node"
	"barter/internal/swarm"
	"barter/internal/transport"
)

// Live-network API: the concurrent peer implementation of the exchange
// protocol, the transports it runs over, and the trusted mediator.
type (
	// PeerID identifies a peer in both the simulator and the live network.
	PeerID = core.PeerID
	// ObjectID identifies an object (file) in the catalog.
	ObjectID = catalog.ObjectID
	// Node is a live peer; construct with NewNode.
	Node = node.Node
	// NodeConfig configures a live peer.
	NodeConfig = node.Config
	// NodeStats snapshots a live peer's counters.
	NodeStats = node.Stats
	// Transport is the pluggable byte transport under the live protocol.
	Transport = transport.Transport
	// Mediator is the trusted audit-and-escrow service of Section III-B —
	// standalone, or one shard of a MediatorCluster.
	Mediator = mediator.Mediator
	// MediatorShardOpts position a mediator inside a sharded tier.
	MediatorShardOpts = mediator.ShardOpts
	// MediatorCluster is a horizontally sharded mediator tier: N shards
	// partitioned by consistent hashing over object id, with kill/restart
	// support for failover scenarios.
	MediatorCluster = mediator.Cluster
	// DigestOracle supplies trusted block checksums to a mediator.
	DigestOracle = mediator.DigestOracle
	// MedClient is the shard-aware mediator client: shard-map caching,
	// pooled connections, retry with backoff, replica failover.
	MedClient = medclient.Client
	// MedClientConfig parameterizes a MedClient.
	MedClientConfig = medclient.Config
	// SwarmConfig parameterizes a live-network swarm run; see RunSwarm.
	SwarmConfig = swarm.Config
	// SwarmScenario names a declarative swarm workload.
	SwarmScenario = swarm.Scenario
	// SwarmResult aggregates one swarm run into figure-shaped TSV.
	SwarmResult = swarm.Result
	// SwarmPeerResult is one node's outcome within a swarm run.
	SwarmPeerResult = swarm.PeerResult
)

// The built-in swarm scenarios.
const (
	SwarmFlashCrowd = swarm.FlashCrowd
	SwarmMixed      = swarm.Mixed
	SwarmFreerider  = swarm.Freerider
	SwarmCheater    = swarm.Cheater
	SwarmChurn      = swarm.Churn
	SwarmAdversary  = swarm.Adversary
	SwarmMedfail    = swarm.Medfail
	SwarmWave       = swarm.Wave
)

// MedClient verdict errors: a rejection proves the claimed sender cheated;
// a missing key is transient (escrow not yet arrived, or lost to a shard
// restart); unavailable means the tier was unreachable through every retry
// and failover attempt.
var (
	ErrMediatorRejected    = medclient.ErrRejected
	ErrMediatorNoKey       = medclient.ErrNoKey
	ErrMediatorUnavailable = medclient.ErrUnavailable
)

// RunSwarm launches a live-network swarm — hundreds of real peers plus a
// trusted mediator over the in-memory transport or TCP loopback — drives
// the configured scenario, and aggregates per-node stats into the same
// figure-shaped TSV the simulator emits (see internal/swarm).
func RunSwarm(cfg SwarmConfig) (*SwarmResult, error) { return swarm.Run(cfg) }

// SwarmScenarios lists the built-in swarm scenarios.
func SwarmScenarios() []SwarmScenario { return swarm.Scenarios() }

// NewNode starts a live peer.
func NewNode(cfg NodeConfig) (*Node, error) { return node.New(cfg) }

// WaitDownload blocks on a Node.Download channel with a timeout.
func WaitDownload(ch <-chan error, timeout time.Duration) error {
	return node.WaitFor(ch, timeout)
}

// NewMemTransport returns an in-process transport for tests, examples, and
// single-machine demos.
func NewMemTransport() Transport { return transport.NewMem() }

// NewTCPTransport returns the production TCP transport.
func NewTCPTransport() Transport { return transport.TCP{} }

// NewTCPTransportDeadlines returns a TCP transport that arms the given
// read and write deadlines around every Recv and Send on its connections
// (zero disables either side, matching NewTCPTransport), so a hung peer
// surfaces as an error instead of wedging a goroutine forever.
func NewTCPTransportDeadlines(read, write time.Duration) Transport {
	return transport.TCP{ReadTimeout: read, WriteTimeout: write}
}

// NewMediator starts a standalone trusted mediator on the given transport
// address.
func NewMediator(tr Transport, addr string, oracle DigestOracle) (*Mediator, error) {
	return mediator.New(tr, addr, oracle)
}

// NewMediatorShard starts a mediator as one member of a sharded tier; the
// opts carry its ring position and the topology map it advertises.
func NewMediatorShard(tr Transport, addr string, oracle DigestOracle, opts MediatorShardOpts) (*Mediator, error) {
	return mediator.NewShard(tr, addr, oracle, opts)
}

// NewMediatorCluster starts one mediator shard per listen address, all
// sharing the oracle, partitioned by consistent hashing over object id.
func NewMediatorCluster(tr Transport, addrs []string, oracle DigestOracle) (*MediatorCluster, error) {
	return mediator.NewCluster(tr, addrs, oracle)
}

// NewMedClient builds the shard-aware mediator client every live peer
// should route its escrow and audit traffic through.
func NewMedClient(cfg MedClientConfig) (*MedClient, error) {
	return medclient.New(cfg)
}
