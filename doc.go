// Package barter is a reproduction of "Exchange-Based Incentive Mechanisms
// for Peer-to-Peer File Sharing" (Anagnostakis & Greenwald, ICDCS 2004): an
// incentive mechanism in which peers give absolute service priority to
// requests from peers that can provide a simultaneous, symmetric service in
// return, generalized from pairwise swaps to n-way exchange rings discovered
// by searching request trees.
//
// The module contains three layers:
//
//   - A deterministic discrete-event simulator of the paper's evaluation
//     environment (Section IV), exposed through Config, NewSimulation, and
//     the Experiments registry that regenerates every table and figure.
//   - The exchange mechanism itself (request trees, ring search, search-order
//     policies), shared by the simulator and the live implementation.
//   - A live, concurrent peer implementation of the protocol over in-memory
//     or TCP transports, including the trusted-mediator defense against
//     middleman cheating (Section III-B), exposed through NewNode,
//     NewMediator, and NewMediatorCluster — plus a swarm harness (RunSwarm,
//     cmd/exchswarm) that runs hundreds of live peers through declarative
//     scenarios.
//
// Peer behavior is declarative and shared across layers: internal/strategy
// defines population classes — sharers, static free-riders, adaptive
// free-riders that contribute only while refused, whitewashers that rejoin
// under fresh identities to shed reputation state, partial sharers with
// throttled upload slots, and corrupt seeds — and both the simulator
// (Config.Mix, the figw experiment) and the live swarm (the adversary
// scenario) consume the same definitions, so figure series and live TSV
// report identical class labels from one source of truth. The legacy
// two-class population (Config.FreeriderFrac) is the nil-Mix default and
// reproduces its historical output byte for byte.
//
// Demand is declarative too: internal/workload is the temporal counterpart
// of the strategy layer — one workload spec (multi-phase demand curves:
// constant, diurnal, flash-crowd with decay; Zipf popularity with optional
// drift; arrive/depart session cohorts, all in normalized horizon
// fractions) drives the simulator open-loop (Config.Workload, the figt
// experiment, exchsim -workload) and the live swarm's wave scenario
// (SwarmConfig.Workload) identically. The same package defines a versioned
// JSON-lines trace format: any swarm run recorded with exchswarm -record
// (SwarmConfig.Record) replays deterministically in the simulator via
// Config.Trace / exchsim -trace, with byte-identical output at any
// parallelism. Both formats are documented field by field in
// docs/WORKLOADS.md; docs/ARCHITECTURE.md maps the package layout to the
// paper's sections.
//
// Experiments enumerate their parameter grids declaratively and execute
// them through RunGrid, a bounded worker pool over independent simulation
// runs. Its determinism contract: a job's effective seed depends only on
// (configured seed, job index, replica index), never on worker count or
// scheduling, so the same seed produces byte-identical tables at any
// parallelism. RunnerOptions.Replicas reruns every grid point under
// distinct derived seeds and aggregates swept series to mean ± 95% CI.
//
// Inside one run the engine honors the same contract at a finer grain, and
// every hot-path optimization must preserve it: the event queue breaks
// timestamp ties by schedule order, the incremental holders/wanters indexes
// iterate in ascending peer-id order (candidate order feeds the RNG draws),
// and no behavior depends on map iteration order, pointer values, or wall
// time. The engine hot path is allocation-free at steady state — free-listed
// event-queue items, closure-free block events, free-listed session/request
// objects, and pooled ring-search scratch — without bending any of the
// above.
//
// Performance is tracked continuously: exchsim -perf appends an engine
// report (events/sec, ring-search traversal effort, allocation load) to
// stderr without touching the hot path, and `make bench` runs the
// repository's one benchmark (BENCHMARK.json, bench/): six fixed-work
// workloads in interleaved rounds, median and spread per metric, written to
// bench/out/latest.json. Each PR commits a copy as BENCH_<pr>.json, and CI's
// bench-track job runs parent-vs-head pairs of the same workloads
// (scripts/bench-compare.sh), failing on a metric that regressed in a
// majority of the pairs.
//
// The trusted mediator is a horizontally scalable service tier, not a
// single process: a MediatorCluster partitions escrow and flagged-peer
// state across N shards by consistent hashing over object id, every shard
// serves the tier's topology (and redirects misrouted traffic), and nodes
// reach it exclusively through the shard-aware client layer
// (internal/medclient) — shard-map caching, pooled per-shard connections,
// retry with backoff, and failover to the replica shard when a mediator dies
// mid-verify. The replica's copy is the tier's own work: the primary shard
// writes every deposit, and either owner every flag, through to the object's
// other owner on one one-way shard-to-shard connection, so a deposit is one
// client RPC and its acknowledgement means "held, logged and queued for the
// replica", not "already on the replica". Every node download runs
// through one lane scheduler (Config.Stripe lanes, each granted to one
// origin's session; see docs/ARCHITECTURE.md) and the mediator changes only
// how a lane is verified: with Config.Mediator set blocks travel sealed
// under an escrowed per-session key and a lane completes only after the
// mediator audits sample blocks and releases the key, so cheaters are
// flagged tier-wide rather than just blacklisted locally. Durability is
// layered: without a data directory a shard restart loses its in-memory
// escrow by design — the protocol distinguishes that transient refusal (no
// honest peer is ever flagged for it) and fresh sessions re-escrow, so
// detection converges through failures; with MediatorShardOpts.DataDir set
// each shard appends every deposit and flag to a per-shard write-ahead log
// and replays it at startup, so restarts forget neither escrow nor
// detection history (the replica logs its written-through copies the same
// way). The tier's size is fixed when it
// starts; a shard restart is the only topology change, and it bumps the
// shard-map epoch so clients refetch the map mid-run.
//
// The live stack scales past unit scenarios through the swarm harness
// (internal/swarm): RunSwarm launches N real nodes plus a mediator tier
// (Config.Mediators shards) over the in-memory transport or TCP loopback
// (with configurable per-I/O deadlines) and drives a declarative scenario —
// flash crowd, steady mixed workload, free-rider fraction, mediator-audited
// cheaters, churn that closes and restarts nodes mid-run hundreds of times,
// or medfail, which kills and restarts mediator shards while mediated
// transfers are in flight and asserts cheater detection still converges
// (and, over a durable tier, that no restart loses a flag). A run's verdict
// is SwarmResult.Err: every download completed, every cheater flagged, no
// flag lost, no honest peer flagged.
// Results aggregate every node's Stats into the simulator's figure-shaped
// TSV (mean download seconds per "live/<class>" series keyed by the
// free-rider fraction), so the live network reproduces Figure 12's sharing
// vs non-sharing gap side by side with exchsim output. Shutdown is graceful
// end to end: nodes track every connection from the moment it is accepted
// or dialed, Close unblocks all readers and writers and fails pending
// Download waiters with ErrNodeClosed, and the mediator tears down idle
// client connections instead of waiting on them forever.
//
// The examples directory demonstrates all three layers; cmd/exchsim
// regenerates the paper's figures from the command line (-parallel bounds
// the pool, -replicas turns on replication, -perf reports engine
// performance); cmd/exchswarm runs the live-network scenarios.
package barter
