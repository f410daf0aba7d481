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
//     environment (Section IV), internal/sim, and the internal/experiment
//     registry that regenerates every table and figure (cmd/exchsim).
//   - The exchange mechanism itself (request trees, ring search, search-order
//     policies) in internal/core, shared by the simulator and the live
//     implementation.
//   - A live, concurrent peer implementation of the protocol over in-memory
//     or TCP transports, including the trusted-mediator defense against
//     middleman cheating (Section III-B): internal/node, internal/mediator
//     and internal/medclient — plus a swarm harness (internal/swarm,
//     cmd/exchswarm) that runs hundreds of live peers through declarative
//     scenarios.
//
// Every package lives under internal/, so the module exports no Go API:
// its public surface is the two commands plus the workload-spec and trace
// formats.
//
// Peer behavior and demand are declarative and shared across layers:
// internal/strategy defines population classes (sharers, static, adaptive
// and whitewashing free-riders, partial sharers, corrupt seeds) and
// internal/workload defines temporal demand specs and a JSON-lines trace
// format, and the simulator and the live swarm consume the same
// definitions. A swarm run recorded with exchswarm -record replays in the
// simulator with exchsim -trace.
//
// Results are deterministic: the same seed produces byte-identical tables
// at any -parallel, because a grid job's seed depends only on (seed, job,
// replica) and no engine behavior depends on map order, pointer values or
// wall time. internal/tools/bartervet enforces that contract in `make lint`.
//
// docs/ARCHITECTURE.md maps the packages to the paper's sections,
// docs/DETERMINISM.md states the determinism rules, docs/WORKLOADS.md
// documents the spec and trace formats, and docs/PERF.md records the
// benchmark (BENCHMARK.json, bench/).
package barter
