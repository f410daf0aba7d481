package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/credit"
	"barter/internal/eventq"
	"barter/internal/experiment"
	"barter/internal/index"
	"barter/internal/mediator"
	"barter/internal/protocol"
	"barter/internal/rng"
	"barter/internal/runner"
	"barter/internal/sim"
	"barter/internal/transport"
)

// The layer probes time calls into one layer's public functions from
// outside, at real iteration counts. They do not depend on the workload, so
// one probe child per invocation serves every workload's per-layer report.
// The probe that replays a workload (runner.*) runs in the rings workload's
// traced child instead.

const probeReps = 3

// timeOp runs fn(n) probeReps times and returns the median cost of one
// iteration in nanoseconds.
func timeOp(n int, fn func(n int)) float64 {
	fn(n / 10) // warm caches and lazy set-up
	var per []float64
	for r := 0; r < probeReps; r++ {
		t := time.Now()
		fn(n)
		per = append(per, float64(time.Since(t))/float64(n))
	}
	return median(per)
}

// probeArgs is what a probe may depend on: the seed for generated inputs, and
// smoke mode's divisor for every iteration count.
type probeArgs struct {
	seed  uint64
	smoke bool
	div   int
}

// runProbes runs every layer probe and returns the per-layer values.
func runProbes(seed uint64, smoke bool) (map[string]float64, error) {
	a := probeArgs{seed: seed, smoke: smoke, div: 1}
	if smoke {
		a.div = 20
	}
	l := make(map[string]float64)
	for _, probe := range []func(map[string]float64, probeArgs) error{
		probeEventq, probeIndex, probeCatalog, probeCredit,
		probeProtocol, probeTransport, probeSealOpen, probeSearch,
	} {
		if err := probe(l, a); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// reschedule is an event that schedules its own successor, holding the queue
// at a steady depth: every Step is one pop plus one push.
type reschedule struct {
	q      *eventq.Queue
	delays []float64
	i      int
}

func (e *reschedule) Fire(float64) {
	e.i++
	_, _ = e.q.After(e.delays[e.i&(len(e.delays)-1)], e) // delays are positive: cannot be in the past
}

func probeEventq(l map[string]float64, a probeArgs) error {
	const depth = 4096
	q := eventq.New()
	r := rng.New(1)
	delays := make([]float64, depth)
	for i := range delays {
		delays[i] = 1 + r.Float64()*1000
	}
	ev := &reschedule{q: q, delays: delays}
	for i := 0; i < depth; i++ {
		_, _ = q.After(delays[i], ev)
	}
	l["eventq.push_pop_ns"] = timeOp(1_000_000/a.div, func(n int) {
		for i := 0; i < n; i++ {
			q.Step()
		}
	})
	return nil
}

func probeIndex(l map[string]float64, a probeArgs) error {
	const peers, objects = 200, 2048
	m := index.NewMultimap[catalog.ObjectID, core.PeerID]()
	r := rng.New(2)
	// Half-fill so adds and removes both hit populated sets.
	for o := 0; o < objects; o++ {
		for p := 0; p < peers; p += 2 {
			m.Add(catalog.ObjectID(o), core.PeerID(p))
		}
	}
	keys := make([]catalog.ObjectID, 4096)
	ids := make([]core.PeerID, 4096)
	for i := range keys {
		keys[i] = catalog.ObjectID(r.Intn(objects))
		ids[i] = core.PeerID(2*r.Intn(peers/2) + 1)
	}
	l["index.add_remove_ns"] = timeOp(2_000_000/a.div, func(n int) {
		for i := 0; i < n; i++ {
			k, id := keys[i&4095], ids[i&4095]
			m.Add(k, id)
			m.Remove(k, id)
		}
	}) / 2
	var visited int
	perPass := timeOp(100_000/a.div, func(n int) {
		for i := 0; i < n; i++ {
			m.Get(keys[i&4095]).ForEach(func(core.PeerID) bool { visited++; return true })
		}
	})
	l["index.iterate_ns"] = perPass / (peers / 2)
	_ = visited
	return nil
}

func probeCatalog(l map[string]float64, a probeArgs) error {
	r := rng.Stream(a.seed, 0xca7)
	cat, err := catalog.New(experiment.FullBase().Catalog, r)
	if err != nil {
		return fmt.Errorf("probe catalog: %w", err)
	}
	in := cat.NewInterest(r)
	held := make(map[catalog.ObjectID]bool)
	for _, o := range cat.InitialStore(in, 40, r) {
		held[o] = true
	}
	var sink catalog.ObjectID
	l["catalog.sample_ns"] = timeOp(1_000_000/a.div, func(n int) {
		for i := 0; i < n; i++ {
			sink += cat.SampleObject(in, r)
		}
	})
	l["catalog.sample_miss_ns"] = timeOp(300_000/a.div, func(n int) {
		for i := 0; i < n; i++ {
			o, _ := cat.SampleMiss(in, r, func(o catalog.ObjectID) bool { return held[o] }, 64)
			sink += o
		}
	})
	_ = sink
	return nil
}

func probeCredit(l map[string]float64, a probeArgs) error {
	const peers = 200
	k := credit.NewKaZaA(nil)
	for p := 0; p < peers; p++ {
		k.OnTransfer(core.PeerID(p), core.PeerID((p+7)%peers), 500)
	}
	var sink float64
	l["credit.score_ns"] = timeOp(2_000_000/a.div, func(n int) {
		for i := 0; i < n; i++ {
			sink += k.Score(core.PeerID(i%peers), core.PeerID((i*31)%peers), float64(i&1023))
		}
	})
	l["credit.on_transfer_ns"] = timeOp(2_000_000/a.div, func(n int) {
		for i := 0; i < n; i++ {
			k.OnTransfer(core.PeerID(i%peers), core.PeerID((i*31)%peers), 500)
		}
	})
	_ = sink
	return nil
}

const probeBlockSize = 16 << 10

func probeBlock() *protocol.Block {
	payload := make([]byte, probeBlockSize)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	return &protocol.Block{Object: 7, Index: 3, Session: 99, Origin: 1, Recipient: 2, Payload: payload}
}

func probeProtocol(l map[string]float64, a probeArgs) error {
	blk := probeBlock()
	frame, err := protocol.AppendEncode(nil, blk)
	if err != nil {
		return fmt.Errorf("probe protocol: %w", err)
	}
	buf := make([]byte, 0, len(frame))
	l["protocol.encode_block_ns"] = timeOp(200_000/a.div, func(n int) {
		for i := 0; i < n; i++ {
			buf, _ = protocol.AppendEncode(buf[:0], blk)
		}
	})
	var scratch []byte
	var rd bytes.Reader
	var decodeErr error
	decode := func(n int) {
		for i := 0; i < n; i++ {
			rd.Reset(frame)
			if _, scratch, err = protocol.DecodeBuf(&rd, scratch); err != nil {
				decodeErr = err
			}
		}
	}
	l["protocol.decode_block_ns"] = timeOp(40_000/a.div, decode)
	const n = 4_000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	decode(n)
	runtime.ReadMemStats(&m1)
	l["protocol.decode_block_allocs"] = float64(m1.Mallocs-m0.Mallocs) / n
	l["protocol.decode_block_bytes"] = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	if decodeErr != nil {
		return fmt.Errorf("probe protocol: %w", decodeErr)
	}
	return nil
}

// probeTransport measures the bare TCP loopback transport: a ping-pong of
// small acks for the round trip, and a one-way stream of 16 KiB blocks.
func probeTransport(l map[string]float64, a probeArgs) error {
	tcp := transport.TCP{}
	ln, err := tcp.Listen(loopback)
	if err != nil {
		return fmt.Errorf("probe transport: %w", err)
	}
	defer ln.Close()
	pings, blocks := 10_000/a.div, 4_000/a.div
	srvErr := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer c.Close()
		// Echo acks; swallow blocks and acknowledge only the last one.
		seen := 0
		for {
			msg, err := c.Recv()
			if err != nil {
				srvErr <- nil // client closed: done
				return
			}
			switch m := msg.(type) {
			case *protocol.BlockAck:
				err = c.Send(m)
			case *protocol.Block:
				if seen++; seen%blocks == 0 {
					err = c.Send(&protocol.BlockAck{Index: m.Index, OK: true})
				}
			}
			if err != nil {
				srvErr <- err
				return
			}
		}
	}()
	c, err := tcp.Dial(ln.Addr())
	if err != nil {
		return fmt.Errorf("probe transport: %w", err)
	}
	var ioErr error
	ack := &protocol.BlockAck{Object: 1, OK: true}
	l["transport.tcp_rtt_us"] = timeOp(pings, func(n int) {
		for i := 0; i < n && ioErr == nil; i++ {
			if ioErr = c.Send(ack); ioErr == nil {
				_, ioErr = c.Recv()
			}
		}
	}) / 1e3
	blk := probeBlock()
	sendBlocks := func() {
		for i := 0; i < blocks && ioErr == nil; i++ {
			ioErr = c.Send(blk)
		}
		if ioErr == nil {
			_, ioErr = c.Recv()
		}
	}
	var rates []float64
	for r := 0; r < probeReps; r++ {
		t := time.Now()
		sendBlocks()
		rates = append(rates, float64(blocks)*probeBlockSize/(1<<20)/time.Since(t).Seconds())
	}
	l["transport.tcp_block_mb_s"] = median(rates)
	c.Close()
	if err := <-srvErr; err != nil {
		return fmt.Errorf("probe transport: server: %w", err)
	}
	if ioErr != nil {
		return fmt.Errorf("probe transport: %w", ioErr)
	}
	return nil
}

func probeSealOpen(l map[string]float64, a probeArgs) error {
	var key [16]byte
	for i := range key {
		key[i] = byte(i + 1)
	}
	payload := probeBlock().Payload
	sealed, err := mediator.Seal(key, 1, 2, 7, 3, payload)
	if err != nil {
		return fmt.Errorf("probe seal: %w", err)
	}
	l["mediator.seal_us"] = timeOp(8_000/a.div, func(n int) {
		for i := 0; i < n; i++ {
			_, err = mediator.Seal(key, 1, 2, 7, 3, payload)
		}
	}) / 1e3
	l["mediator.open_us"] = timeOp(8_000/a.div, func(n int) {
		for i := 0; i < n; i++ {
			_, _, _, err = mediator.Open(key, 7, 3, sealed)
		}
	}) / 1e3
	if err != nil {
		return fmt.Errorf("probe seal/open: %w", err)
	}
	return nil
}

// searchPolicies are the two ring-search orders the paper compares, keyed by
// the per-layer metric suffix.
var searchPolicies = []core.Policy{core.PolicyN2, core.Policy2N}

// probeSearch times Sim.SearchOnce over every peer of a loaded snapshot: the
// paper-scale world at 40 kb/s advanced to t = 10 000 s, where request
// queues are deep enough for searches to have something to traverse.
func probeSearch(l map[string]float64, a probeArgs) error {
	cfg := experiment.FullBase()
	if a.smoke {
		cfg = experiment.QuickBase()
	}
	cfg.Seed = a.seed
	cfg.UploadKbps = 40
	cfg.Policy = core.Policy2N
	s, err := sim.New(cfg)
	if err != nil {
		return fmt.Errorf("probe search: %w", err)
	}
	s.RunUntil(10_000)
	peers := s.NumPeers()
	passes := 20
	if a.smoke {
		passes = 2
	}
	for _, pol := range searchPolicies {
		l["core.search_us."+pol.String()] = timeOp(passes*peers, func(n int) {
			for i := 0; i < n; i++ {
				s.SearchOnce(core.PeerID(i%peers), pol)
			}
		}) / 1e3
	}
	return nil
}

// probeRunner replays the rings slice through the parallel runner at one
// worker per CPU. Its outputs must equal the sequential slice's exactly.
func probeRunner(a sliceArgs, res *sliceResult) error {
	l := res.Layers
	var jobs []runner.Job
	for _, p := range simPoints(a.workload, a.seed, a.smoke) {
		jobs = append(jobs, runner.Job{Config: p.cfg, Label: p.label})
	}
	t := time.Now()
	out, err := runner.Run(jobs, runner.Options{Parallel: runtime.NumCPU()})
	wall := time.Since(t).Seconds()
	if err != nil {
		return fmt.Errorf("probe runner: %w", err)
	}
	var events, searches float64
	for _, r := range out {
		events += float64(r.Primary().Events)
		searches += float64(r.Primary().RingSearches)
	}
	if events != res.Counts["sim.events"] || searches != res.Counts["core.searches"] {
		res.fail("parallel runner diverged: %v events / %v searches, sequential %v / %v",
			events, searches, res.Counts["sim.events"], res.Counts["core.searches"])
	}
	l["runner.parallel_wall_s"] = wall
	l["runner.speedup"] = (l["sim.new_ms"] + l["sim.run_ms"]) / 1e3 / wall
	return nil
}

// deriveShares combines the traced slice's counts with the probes' unit
// costs, once both are in l.
//
// core.search_share is the share of the slice's run time that ring searches
// account for at the probed cost per search.
//
// harness.unexplained_share is the part of the slice's measured CPU time that
// probe cost times count does not account for: the gap between the sum of
// the layers and the whole, which is the next thing to find. Only layers
// with both a count in the slice and a unit cost from a probe enter the sum.
func deriveShares(l map[string]float64, traced *sliceResult) {
	var searchS float64
	for _, pol := range searchPolicies {
		searchS += traced.Counts["core.searches."+pol.String()] * l["core.search_us."+pol.String()] / 1e6
	}
	if traced.WallRawS > 0 {
		l["core.search_share"] = searchS / traced.WallRawS
	}
	explained := searchS
	explained += l["sim.events"] * l["eventq.push_pop_ns"] / 1e9
	explained += l["transport.sends"] * l["transport.send_us_mean"] / 1e6
	explained += l["transport.block_msgs"] * l["protocol.decode_block_ns"] / 1e9
	switch traced.Workload {
	case wlMediated:
		// Every block is sealed by its origin and opened by the receiver.
		explained += l["node.blocks_received"] * (l["mediator.seal_us"] + l["mediator.open_us"]) / 1e6
	case wlMedAudit:
		// The tier opens every submitted sample; cost scales with its size.
		opened := float64(traced.Ops) * auditSamples * auditSampleSize / probeBlockSize
		explained += opened * l["mediator.open_us"] / 1e6
	}
	if traced.CPUMeasuredS > 0 {
		l["harness.unexplained_share"] = 1 - explained/traced.CPUMeasuredS
	}
}
