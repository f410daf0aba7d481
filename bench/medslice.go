package main

import (
	"errors"
	"sync"
	"time"

	"barter/internal/catalog"
	"barter/internal/core"
	"barter/internal/medclient"
	"barter/internal/mediator"
	"barter/internal/perfstats"
	"barter/internal/protocol"
	"barter/internal/rng"
)

const (
	auditObjects    = 64
	auditSamples    = 4
	auditSampleSize = 4 << 10
	// tamperEvery makes every 64th audit a cheating one.
	tamperEvery = 64

	honestSender  = core.PeerID(1)
	auditReceiver = core.PeerID(2)
	// throwawayBase starts the id range of the senders blamed by the
	// tampered audits, so flags never accumulate on the honest sender.
	throwawayBase = core.PeerID(1000)
)

func auditOps(smoke bool) int {
	if smoke {
		return 512
	}
	return 20000
}

// runMedAuditSlice saturates the mediator tier alone: closed-loop callers
// share one client and issue deposit+verify pairs against a durable 2-shard
// cluster over TCP loopback. Nodes and block transfer are bypassed.
func runMedAuditSlice(a sliceArgs, tr *tracer) (*sliceResult, error) {
	res := newSliceResult(a)
	root := tr.begin("slice", 0, 0)

	base, tt := sliceTransport(tr, 0)

	// Seeded content: per object a key and its sealed honest samples.
	objs := seededObjects(a.seed, auditObjects, auditSamples*auditSampleSize)
	digests := make([][][32]byte, len(objs))
	keys := make([][16]byte, len(objs))
	samples := make([][]protocol.Block, len(objs))
	keyRNG := rng.Stream(a.seed, 0x6b657973)
	for o := 1; o < len(objs); o++ {
		obj := catalog.ObjectID(o)
		digests[o] = blockDigests(objs[o], auditSampleSize)
		for i := range keys[o] {
			keys[o][i] = byte(keyRNG.Uint64())
		}
		for i := 0; i < auditSamples; i++ {
			sealed, err := mediator.Seal(keys[o], honestSender, auditReceiver, obj, uint32(i), objs[o][i*auditSampleSize:(i+1)*auditSampleSize])
			if err != nil {
				return nil, err
			}
			samples[o] = append(samples[o], protocol.Block{Object: obj, Index: uint32(i), Origin: honestSender, Recipient: auditReceiver, Encrypted: true, Payload: sealed})
		}
	}
	id := tr.begin("mediator.NewCluster", root, 0)
	tier, err := startMedTier(base, oracleFor(digests), a.outDir)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	defer tier.close()
	// The first call fetches the shard map and dials; keep that out of the
	// measured part.
	if _, _, err := tier.client.Map(); err != nil {
		return nil, err
	}

	total := auditOps(a.smoke)
	nClients := clients()
	order := rng.Stream(a.seed, 0x6f726472)
	objectOf := make([]catalog.ObjectID, total)
	for i := range objectOf {
		objectOf[i] = catalog.ObjectID(1 + order.Intn(auditObjects))
	}
	junk := make([]byte, auditSampleSize)

	type clientLog struct {
		audit, deposit, verify []float64
		fails                  []string
	}
	logs := make([]clientLog, nClients)
	res.SetupS = time.Since(a.start).Seconds()

	perf0 := perfstats.Current()
	mem0 := readMem()
	cpu0 := cpuSeconds()
	wallStart := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lg := &logs[c]
			for i := c; i < total; i += nClients {
				obj := objectOf[i]
				exchange := uint64(i + 1)
				sender, submit := honestSender, samples[obj]
				tampered := i%tamperEvery == tamperEvery-1
				if tampered {
					sender = throwawayBase + core.PeerID(i/tamperEvery)
					sealed, err := mediator.Seal(keys[obj], sender, auditReceiver, obj, 0, junk)
					if err != nil {
						lg.fails = append(lg.fails, err.Error())
						continue
					}
					submit = []protocol.Block{{Object: obj, Origin: sender, Recipient: auditReceiver, Encrypted: true, Payload: sealed}}
				}
				op := tr.begin("audit", root, i+1)
				t0 := time.Now()
				sp := tr.begin("medclient.Deposit", op, i+1)
				derr := tier.client.Deposit(exchange, sender, obj, keys[obj])
				tr.end(sp)
				t1 := time.Now()
				sp = tr.begin("medclient.Verify", op, i+1)
				key, verr := tier.client.Verify(exchange, auditReceiver, sender, obj, submit)
				tr.end(sp)
				t2 := time.Now()
				tr.end(op)
				lg.deposit = append(lg.deposit, t1.Sub(t0).Seconds()*1e6)
				lg.verify = append(lg.verify, t2.Sub(t1).Seconds()*1e6)
				lg.audit = append(lg.audit, t2.Sub(t0).Seconds()*1e3)
				switch {
				case derr != nil:
					lg.fails = append(lg.fails, "deposit: "+derr.Error())
				case tampered && !errors.Is(verr, medclient.ErrRejected):
					lg.fails = append(lg.fails, "tampered audit was not rejected")
				case !tampered && verr != nil:
					lg.fails = append(lg.fails, "honest audit: "+verr.Error())
				case !tampered && key != keys[obj]:
					lg.fails = append(lg.fails, "honest audit returned the wrong key")
				}
			}
		}(c)
	}
	wg.Wait()
	res.WallRawS = time.Since(wallStart).Seconds()
	cpu := cpuSeconds() - cpu0
	mem := readMem().sub(mem0)
	perf := perfstats.Current().Sub(perf0)
	tr.end(root)

	var audit, deposit, verify []float64
	for i := range logs {
		audit = append(audit, logs[i].audit...)
		deposit = append(deposit, logs[i].deposit...)
		verify = append(verify, logs[i].verify...)
		for _, f := range logs[i].fails {
			res.fail("%s", f)
		}
	}
	res.Ops = total
	res.setLatencies(audit)
	res.WallS = bodyMakespan(audit, nClients)
	res.GCCycles, res.AllocMB = mem.gc, mem.allocMB
	res.CPUMeasuredS = cpu

	flags, onHonest := tier.flags([]core.PeerID{honestSender, auditReceiver})
	// Every tampered audit flags its throwaway sender on the primary and,
	// through the handoff, on the replica; none may be missed.
	if want := total / tamperEvery; flags < want {
		res.fail("tier holds %d flags after %d tampered audits", flags, want)
	}
	l := res.Layers
	l["mediator.flags"] = float64(flags)
	l["mediator.honest_flagged"] = float64(onHonest)
	l["mediator.audits_per_s"] = float64(total) / res.WallRawS
	l["mediator.cpu_ms_per_audit"] = cpu * 1e3 / float64(total)
	l["mediator.wal_bytes_per_op"] = float64(tier.walBytes()) / float64(total)
	l["medclient.deposit_us_p50"] = median(deposit)
	l["medclient.verify_us_p50"] = median(verify)
	l["medclient.audit_ms_p99"] = res.OpMsP99
	l["medclient.rpcs"] = float64(perf.MedRPCs)
	l["medclient.rpc_peak"] = float64(perf.MedRPCPeak)
	tt.report(l, res.Ops)
	return res, nil
}
