package main

// The registry is the single in-code statement of what this benchmark
// measures: the workloads, the end-to-end metrics with their regression
// bounds, and the per-layer metrics. BENCHMARK.json at the repository root
// restates it for the driver; TestRegistryMatchesBenchmarkJSON keeps the two
// from drifting apart.

type workloadDef struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json "why").
	Why string
	// Kind selects the slice implementation.
	Kind workloadKind
}

type workloadKind int

const (
	kindSim workloadKind = iota
	kindLive
	kindMedAudit
)

const (
	wlRings      = "sim-fig4-rings"
	wlNoExchange = "sim-fig4-noexchange"
	wlCredit     = "sim-figw-credit"
	wlPlainTCP   = "live-plain-tcp"
	wlMediated   = "live-mediated-striped"
	wlMedAudit   = "med-audit-saturation"
)

var workloads = []workloadDef{
	{wlRings, "paper-scale fig4 points under 5-2-way and 2-5-way at 60/40 kb/s: ring search is over half the time, so a search or adjacency change must show here", kindSim},
	{wlNoExchange, "same world with exchanges off, zero ring searches: eventq/index/catalog/collector do all the work, so a search change must not move it", kindSim},
	{wlCredit, "KaZaA credit ranker against adaptive, whitewashing and partial adversaries plus exchange vs whitewashers: ranker scoring and identity churn hit the index write side", kindSim},
	{wlPlainTCP, "1024 closed-loop node downloads of 256 KiB objects over TCP loopback, no mediator: codec, transport and the node event loop", kindLive},
	{wlMediated, "the same downloads through a durable 2-shard mediator tier striped over 3 origins: adds seal/open, escrow and per-stripe audits", kindLive},
	{wlMedAudit, "deposit+verify pairs against the durable tier from closed-loop callers, every 64th tampered: audits/s with writes beside reads, nodes bypassed", kindMedAudit},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression; 0 for per-layer.
	Bound float64
}

// The time bounds are the widest the contract allows because the box is not
// quiet: bench/README.md ("Noise study") has the measurements behind them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"op_ms_p90", "ms", "lower", 0.25},
}

func lower(name, unit string) metricDef  { return metricDef{name, unit, "lower", 0} }
func higher(name, unit string) metricDef { return metricDef{name, unit, "higher", 0} }

// perLayer is every per-layer metric, in report order. A workload that does
// not exercise a layer reports that layer's counts as 0 (it did zero of that
// work); the micro probes are workload-independent and run on every traced
// round.
var perLayer = []metricDef{
	// sim: from the traced slice's results.
	lower("sim.new_ms", "ms"),
	lower("sim.run_ms", "ms"),
	lower("sim.events", "count"),
	lower("sim.ns_per_event", "ns"),
	lower("sim.allocs_per_event", "count"),
	higher("sim.completed_downloads", "count"),
	lower("sim.whitewashes", "count"),
	lower("sim.flips", "count"),
	// core: ring search.
	lower("core.searches", "count"),
	lower("core.nodes_visited", "count"),
	lower("core.want_probes", "count"),
	higher("core.rings_started", "count"),
	higher("core.ring_yield", "ratio"),
	lower("core.search_us.5-2-way", "us"),
	lower("core.search_us.2-5-way", "us"),
	lower("core.search_share", "ratio"),
	// engine data structures (micro probes).
	lower("eventq.push_pop_ns", "ns"),
	lower("index.add_remove_ns", "ns"),
	lower("index.iterate_ns", "ns"),
	lower("catalog.sample_ns", "ns"),
	lower("catalog.sample_miss_ns", "ns"),
	lower("credit.score_ns", "ns"),
	lower("credit.on_transfer_ns", "ns"),
	// runner.
	lower("runner.parallel_wall_s", "s"),
	higher("runner.speedup", "ratio"),
	// wire.
	lower("protocol.encode_block_ns", "ns"),
	lower("protocol.decode_block_ns", "ns"),
	lower("protocol.decode_block_allocs", "count"),
	lower("protocol.decode_block_bytes", "B"),
	lower("transport.tcp_rtt_us", "us"),
	higher("transport.tcp_block_mb_s", "MB/s"),
	lower("transport.sends", "count"),
	lower("transport.send_us_mean", "us"),
	lower("transport.recv_wait_us_mean", "us"),
	lower("transport.dials", "count"),
	lower("transport.msgs_per_op", "count"),
	lower("transport.block_msgs", "count"),
	// node.
	lower("node.download_ms_p99", "ms"),
	lower("node.spawn_ms", "ms"),
	lower("node.blocks_sent", "count"),
	lower("node.blocks_received", "count"),
	lower("node.blocks_rejected", "count"),
	lower("node.send_overflows", "count"),
	higher("node.rings", "count"),
	lower("node.preemptions", "count"),
	lower("node.med_verifies", "count"),
	lower("node.med_rejects", "count"),
	lower("node.stripes_granted", "count"),
	lower("node.stripes_reassigned", "count"),
	lower("node.stripe_reassign_ratio", "ratio"),
	// mediator tier.
	lower("mediator.seal_us", "us"),
	lower("mediator.open_us", "us"),
	higher("mediator.audits_per_s", "1/s"),
	lower("mediator.cpu_ms_per_audit", "ms"),
	lower("mediator.flags", "count"),
	lower("mediator.honest_flagged", "count"),
	lower("mediator.wal_bytes_per_op", "B"),
	lower("medclient.deposit_us_p50", "us"),
	lower("medclient.verify_us_p50", "us"),
	lower("medclient.audit_ms_p99", "ms"),
	lower("medclient.rpcs", "count"),
	higher("medclient.rpc_peak", "count"),
	// harness: what the slice cost as a process.
	lower("harness.wall_raw_s", "s"),
	lower("harness.cpu_user_s", "s"),
	lower("harness.cpu_sys_s", "s"),
	lower("harness.gc_cycles", "count"),
	lower("harness.alloc_mb", "MB"),
	lower("harness.trace_overhead", "ratio"),
	lower("harness.unexplained_share", "ratio"),
}
