package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/medclient"
	"barter/internal/mediator"
	"barter/internal/node"
	"barter/internal/perfstats"
	"barter/internal/rng"
	"barter/internal/transport"
)

// liveWorld sizes the two node-level workloads. The working set is kept at
// 16 MiB on purpose: larger sets turn the run into page-fault sys time on
// this VM (see README, "Noise study").
type liveWorld struct {
	holders    int
	objects    int
	objectSize int
	blockSize  int
	sets       int // downloader sets per slice
	setSize    int // fresh downloader nodes per set
}

func liveWorldFor(smoke bool) liveWorld {
	if smoke {
		return liveWorld{holders: 4, objects: 8, objectSize: 64 << 10, blockSize: 16 << 10, sets: 1, setSize: 4}
	}
	return liveWorld{holders: 4, objects: 64, objectSize: 256 << 10, blockSize: 16 << 10, sets: 4, setSize: 4}
}

const (
	loopback        = "127.0.0.1:0"
	downloadTimeout = 30 * time.Second
	medShards       = 2
	liveStripe      = 3
)

// clients is the closed-loop client count: one process, sized to the machine.
func clients() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// seededObjects generates n objects of size bytes each from the seed; object
// ids are 1..n.
func seededObjects(seed uint64, n, size int) [][]byte {
	objs := make([][]byte, n+1)
	for o := 1; o <= n; o++ {
		r := rng.Stream(seed, uint64(o))
		b := make([]byte, size)
		for i := 0; i+8 <= size; i += 8 {
			binary.LittleEndian.PutUint64(b[i:], r.Uint64())
		}
		objs[o] = b
	}
	return objs
}

func blockDigests(data []byte, blockSize int) [][32]byte {
	var digs [][32]byte
	for off := 0; off < len(data); off += blockSize {
		end := off + blockSize
		if end > len(data) {
			end = len(data)
		}
		digs = append(digs, sha256.Sum256(data[off:end]))
	}
	return digs
}

// oracleFor serves the mediator's trusted block digests from a table indexed
// by object id (ids start at 1).
func oracleFor(digests [][][32]byte) mediator.DigestOracle {
	return func(o catalog.ObjectID) ([][32]byte, bool) {
		if o < 1 || int(o) >= len(digests) {
			return nil, false
		}
		return digests[o], true
	}
}

// medTier is a durable mediator cluster over the slice's transport plus the
// one client everything in the slice shares.
type medTier struct {
	cluster *mediator.Cluster
	client  *medclient.Client
	dataDir string
}

func startMedTier(tr transport.Transport, oracle mediator.DigestOracle, outDir string) (*medTier, error) {
	dir, err := os.MkdirTemp(outDir, "wal-")
	if err != nil {
		return nil, err
	}
	addrs := make([]string, medShards)
	for i := range addrs {
		addrs[i] = loopback
	}
	cluster, err := mediator.NewClusterOpts(tr, addrs, oracle, mediator.ClusterOpts{DataDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	client, err := medclient.New(medclient.Config{Transport: tr, Seeds: cluster.Addrs()})
	if err != nil {
		cluster.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return &medTier{cluster: cluster, client: client, dataDir: dir}, nil
}

func (m *medTier) close() {
	m.client.Close()
	m.cluster.Close()
	os.RemoveAll(m.dataDir)
}

// flags sums the tier's flag counts: over every flagged peer, and over the
// given honest ids alone.
func (m *medTier) flags(honest []core.PeerID) (all, onHonest int) {
	for i := 0; i < m.cluster.Shards(); i++ {
		if sh := m.cluster.Shard(i); sh != nil {
			for _, n := range sh.FlaggedAll() {
				all += n
			}
		}
	}
	for _, id := range honest {
		onHonest += m.cluster.Flagged(id)
	}
	return all, onHonest
}

func (m *medTier) walBytes() int64 {
	var total int64
	files, _ := filepath.Glob(filepath.Join(m.dataDir, "*"))
	for _, f := range files {
		if st, err := os.Stat(f); err == nil {
			total += st.Size()
		}
	}
	return total
}

// cpuSeconds is this process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

type liveOp struct {
	downloader int
	object     catalog.ObjectID
}

// liveSchedule deals one set's (downloader, object) pairs to the clients,
// each client's share in seeded order. Objects are split between clients by
// id, so two downloads of one object never run at once and wire traffic can
// be attributed to its operation by object.
func liveSchedule(r *rng.RNG, w liveWorld, nClients int) [][]liveOp {
	sched := make([][]liveOp, nClients)
	for c := range sched {
		for d := 0; d < w.setSize; d++ {
			for o := 1; o <= w.objects; o++ {
				if o%nClients == c {
					sched[c] = append(sched[c], liveOp{d, catalog.ObjectID(o)})
				}
			}
		}
		ops := sched[c]
		r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	}
	return sched
}

// runLiveSlice runs the node-level workloads: holders serve seeded objects
// over TCP loopback, and set after set of fresh downloader nodes fetches
// every object once, driven by closed-loop clients. A set's nodes are closed
// before the next set is spawned, which bounds the slice's memory; spawning
// counts as set-up, not as measured work. The mediated variant adds a durable
// 2-shard tier and stripes each download over 3 origins.
func runLiveSlice(a sliceArgs, tr *tracer) (*sliceResult, error) {
	res := newSliceResult(a)
	l := res.Layers
	w := liveWorldFor(a.smoke)
	mediated := a.workload == wlMediated
	root := tr.begin("slice", 0, 0)

	base, tt := sliceTransport(tr, w.objects)

	objs := seededObjects(a.seed, w.objects, w.objectSize)
	digests := make([][][32]byte, len(objs))
	sums := make([][32]byte, len(objs))
	for o := 1; o < len(objs); o++ {
		digests[o] = blockDigests(objs[o], w.blockSize)
		sums[o] = sha256.Sum256(objs[o])
	}

	var tier *medTier
	var medc *medclient.Client
	if mediated {
		id := tr.begin("mediator.NewCluster", root, 0)
		var err error
		tier, err = startMedTier(base, oracleFor(digests), a.outDir)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		defer tier.close()
		medc = tier.client
	}

	spawn := func(id core.PeerID, share bool) (*node.Node, error) {
		sp := tr.begin("node.New", root, 0)
		defer tr.end(sp)
		cfg := node.Config{ID: id, Addr: loopback, Transport: base, Share: share, BlockSize: w.blockSize, Mediator: medc}
		if mediated && !share {
			cfg.Stripe = liveStripe
		}
		return node.New(cfg)
	}
	// retire folds a node's counters into the per-layer sums and closes it.
	retire := func(n *node.Node) {
		st := n.Stats()
		l["node.blocks_sent"] += float64(st.BlocksSent)
		l["node.blocks_received"] += float64(st.BlocksReceived)
		l["node.blocks_rejected"] += float64(st.BlocksRejected)
		l["node.send_overflows"] += float64(st.SendOverflows)
		l["node.rings"] += float64(st.RingsJoined + st.RingsInitiated)
		l["node.preemptions"] += float64(st.Preemptions)
		l["node.med_verifies"] += float64(st.MedVerifies)
		l["node.med_rejects"] += float64(st.MedRejects)
		n.Close()
	}

	providers := make(map[core.PeerID]string, w.holders)
	var holders []*node.Node
	var honest []core.PeerID
	defer func() {
		for _, n := range holders {
			retire(n)
		}
	}()
	for h := 1; h <= w.holders; h++ {
		n, err := spawn(core.PeerID(h), true)
		if err != nil {
			return nil, err
		}
		holders = append(holders, n)
		for o := 1; o < len(objs); o++ {
			n.AddObject(catalog.ObjectID(o), objs[o])
		}
		providers[n.ID()] = n.Addr()
		honest = append(honest, n.ID())
	}

	nClients := clients()
	order := rng.Stream(a.seed, 0x5c4ed)
	var (
		setup   = time.Since(a.start)
		wall    time.Duration
		spawnNs time.Duration
		lats    []float64
		cpu     float64
	)
	perf0 := perfstats.Current()
	mem0 := readMem()
	for s := 0; s < w.sets; s++ {
		setSpan := tr.begin(fmt.Sprintf("set %d", s), root, 0)
		t := time.Now()
		set := make([]*node.Node, w.setSize)
		for d := range set {
			n, err := spawn(core.PeerID(101+s*w.setSize+d), false)
			if err != nil {
				return nil, err
			}
			set[d] = n
		}
		sched := liveSchedule(order, w, nClients)
		spawnNs += time.Since(t)
		setup += time.Since(t)

		setLats := make([][]float64, nClients)
		errs := make([]map[liveOp]string, nClients)
		cpu0 := cpuSeconds()
		t = time.Now()
		var wg sync.WaitGroup
		for c := 0; c < nClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				errs[c] = make(map[liveOp]string)
				for _, op := range sched[c] {
					sp := tr.begin("Node.Download", setSpan, 0)
					tt.setOp(op.object, sp)
					t := time.Now()
					err := node.WaitFor(set[op.downloader].Download(op.object, providers), downloadTimeout)
					setLats[c] = append(setLats[c], time.Since(t).Seconds()*1e3)
					tr.end(sp)
					if err != nil {
						errs[c][op] = err.Error()
					}
				}
			}(c)
		}
		wg.Wait()
		wall += time.Since(t)
		cpu += cpuSeconds() - cpu0
		tr.end(setSpan)

		// Correctness: every downloader of the set must now hold every
		// object, byte for byte. An op fails once, whether it errored, holds
		// wrong bytes, or both.
		for c := range setLats {
			lats = append(lats, setLats[c]...)
		}
		for d, n := range set {
			for o := 1; o < len(objs); o++ {
				op := liveOp{d, catalog.ObjectID(o)}
				reason, failed := errs[o%nClients][op]
				if got := n.Object(op.object); !failed && sha256.Sum256(got) != sums[o] {
					reason, failed = fmt.Sprintf("wrong bytes (%d of %d)", len(got), len(objs[o])), true
				}
				if failed {
					res.fail("set %d downloader %d object %d: %s", s, d, o, reason)
				}
			}
			retire(n)
		}
	}
	mem := readMem().sub(mem0)
	perf := perfstats.Current().Sub(perf0)
	tr.end(root)

	res.SetupS = setup.Seconds()
	res.WallRawS = wall.Seconds()
	res.WallS = bodyMakespan(lats, nClients)
	res.Ops = len(lats)
	res.setLatencies(lats)
	res.GCCycles, res.AllocMB = mem.gc, mem.allocMB
	res.CPUMeasuredS = cpu

	l["node.download_ms_p99"] = res.OpMsP99
	l["node.spawn_ms"] = spawnNs.Seconds() * 1e3 / float64(w.sets*w.setSize)
	l["node.stripes_granted"] = float64(perf.StripesGranted)
	l["node.stripes_reassigned"] = float64(perf.StripesReassigned)
	if perf.StripesGranted > 0 {
		l["node.stripe_reassign_ratio"] = float64(perf.StripesReassigned) / float64(perf.StripesGranted)
	}
	if mediated {
		flags, onHonest := tier.flags(honest)
		l["mediator.flags"] = float64(flags)
		l["mediator.honest_flagged"] = float64(onHonest)
		l["mediator.wal_bytes_per_op"] = float64(tier.walBytes()) / float64(res.Ops)
		l["medclient.rpcs"] = float64(perf.MedRPCs)
		l["medclient.rpc_peak"] = float64(perf.MedRPCPeak)
		if v := l["node.med_verifies"]; v > 0 {
			l["mediator.audits_per_s"] = v / res.WallRawS
			l["mediator.cpu_ms_per_audit"] = cpu * 1e3 / v
		}
	}
	tt.report(l, res.Ops)
	return res, nil
}
