package main

import (
	"sort"
	"strings"

	"repro/internal/core"
)

// tracedPasses is how many passes of a traced run record spans; one
// untraced pass precedes them as the reference for trace.overhead_frac.
const tracedPasses = 2

// runTraced repeats the workload with the benchmark's spans on and the
// poller draining the daemons' records, then joins the two, prints the
// budget, computes every per-layer metric and runs the direct probes.
// Nothing it measures is an end-to-end number.
func runTraced(cfg runConfig, e *env, wl workload, res *result) {
	res.Passes = 1 + tracedPasses
	ref := runPass(e, wl, cfg.Size.passLen)

	recs := make([]*recorder, len(e.clients))
	for i, c := range e.clients {
		recs[i] = &recorder{client: i}
		c.tr = recs[i]
	}
	before := snapshot(e)
	p := startPoller(e)
	var tracedOps []float64
	for i := 0; i < tracedPasses; i++ {
		tracedOps = append(tracedOps, runPass(e, wl, cfg.Size.passLen).opsPerSec)
	}
	p.finish()
	after := snapshot(e)
	for _, c := range e.clients {
		c.tr = nil
	}

	workerAddr := make(map[string]string)
	for _, w := range e.cluster.Workers {
		workerAddr[w.DataAddr()] = "worker:" + string(w.ID())
	}
	j := join(recs, p, workerAddr)
	shares, iterWall := budget(j.spans)
	res.Budget = shares
	res.spans, res.spanTotal = j.spans, len(j.spans)
	iters := float64(max(1, j.iterations))

	// client: one span per call into the library.
	var calls [numCallKinds][]float64
	for i := range j.spans {
		s := &j.spans[i]
		if strings.HasPrefix(s.Name, "client.") {
			calls[s.kind] = append(calls[s.kind], float64(s.dur())/1e3)
		}
	}
	busy := 0.0
	for k, durs := range calls {
		sort.Float64s(durs)
		sum := 0.0
		for _, d := range durs {
			sum += d
		}
		frac := sum * 1e3 / float64(max(1, iterWall))
		busy += frac
		name := "client." + callNames[k]
		res.put(name+".p50_us", "us", quantile(durs, 0.5))
		res.put(name+".p99_us", "us", quantile(durs, 0.99))
		res.put(name+".busy_frac", "frac", frac)
	}
	res.put("client.other_frac", "frac", 1-busy)

	// The metrics below that are end-to-end in kind but undefined on
	// some workload (no data, one op class) come from the untraced
	// reference pass.
	res.put("data_mbps", "MiB/s", ref.mbps)
	res.put("read_op_p50_ms", "ms", ref.readP50)
	res.put("mutate_op_p50_ms", "ms", ref.mutateP50)
	res.put("client.op_p99_ms", "ms", ref.p99)

	// master and namespace: audit entries and counter deltas.
	res.put("master.rpcs_per_op", "count", (after.masterOps-before.masterOps)/iters)
	res.put("master.audit_dropped", "count", float64(after.auditDrop-before.auditDrop))
	var lockWait, apply, appendNs []float64
	for _, a := range p.audit {
		lockWait = append(lockWait, float64(a.LockWaitNs)/1e3)
		apply = append(apply, float64(a.ApplyNs)/1e3)
		if a.AppendNs > 0 {
			appendNs = append(appendNs, float64(a.AppendNs)/1e3)
		}
	}
	sort.Float64s(lockWait)
	sort.Float64s(apply)
	sort.Float64s(appendNs)
	res.put("namespace.lock_wait_p50_us", "us", quantile(lockWait, 0.5))
	res.put("namespace.lock_wait_p99_us", "us", quantile(lockWait, 0.99))
	res.put("namespace.apply_p50_us", "us", quantile(apply, 0.5))
	res.put("namespace.editlog_append_p50_us", "us", quantile(appendNs, 0.5))
	res.put("namespace.editlog_bytes_per_mutation", "B", float64(after.editBytes-before.editBytes)/float64(max(1, len(appendNs))))

	// rpc: the clients' own flight records.
	phases := map[string][]float64{}
	var peerHeader []float64 // a reader's wait for the worker's response header
	var readBytes, fastBytes, memBytes float64
	for _, r := range p.client {
		add := func(phase string, ns int64) {
			phases[r.Op+"."+phase] = append(phases[r.Op+"."+phase], float64(ns)/1e3)
		}
		add("dial", r.DialNs)
		add("header", r.HeaderEncodeNs+r.HeaderDecodeNs)
		add("net", r.NetNs)
		add("ack_wait", r.AckWaitNs)
		add("stall", r.StallNs)
		if r.Op == "read" {
			peerHeader = append(peerHeader, float64(r.HeaderDecodeNs)/1e3)
			readBytes += float64(r.Bytes)
			switch r.Tier {
			case core.TierMemory.String():
				memBytes += float64(r.Bytes)
				fastBytes += float64(r.Bytes)
			case core.TierSSD.String():
				fastBytes += float64(r.Bytes)
			}
		}
	}
	for _, v := range phases {
		sort.Float64s(v)
	}
	sort.Float64s(peerHeader)
	for _, m := range []struct{ op, phase string }{
		{"write", "dial"}, {"write", "header"}, {"write", "net"}, {"write", "ack_wait"},
		{"read", "dial"}, {"read", "header"}, {"read", "net"}, {"read", "stall"},
	} {
		v := phases[m.op+"."+m.phase]
		res.put("rpc."+m.op+"."+m.phase+"_p50_us", "us", quantile(v, 0.5))
		res.put("rpc."+m.op+"."+m.phase+"_p99_us", "us", quantile(v, 0.99))
	}
	hits, misses := after.pool.Hits-before.pool.Hits, after.pool.Misses-before.pool.Misses
	res.put("rpc.pool_hit_frac", "frac", float64(hits)/float64(max(1, hits+misses)))

	// worker: every hop's record. The pre-response scrub has no phase of
	// its own on the worker's side; the reader sees it as the wait for
	// the response header.
	wphase := map[string][]float64{}
	var throttleNs, workerNs float64
	for _, r := range p.worker {
		wphase[r.Op+".disk"] = append(wphase[r.Op+".disk"], float64(r.DiskNs)/1e3)
		wphase[r.Op+".forward"] = append(wphase[r.Op+".forward"], float64(r.ForwardNs)/1e3)
		wphase[r.Op+".ack_wait"] = append(wphase[r.Op+".ack_wait"], float64(r.AckWaitNs)/1e3)
		throttleNs += float64(r.ThrottleWaitNs)
		workerNs += float64(r.TotalNs)
	}
	for _, v := range wphase {
		sort.Float64s(v)
	}
	res.put("worker.write.disk_p50_us", "us", quantile(wphase["write.disk"], 0.5))
	res.put("worker.write.forward_p50_us", "us", quantile(wphase["write.forward"], 0.5))
	res.put("worker.write.ack_wait_p50_us", "us", quantile(wphase["write.ack_wait"], 0.5))
	res.put("worker.read.disk_p50_us", "us", quantile(wphase["read.disk"], 0.5))
	res.put("worker.read.header_p99_us", "us", quantile(peerHeader, 0.99))
	res.put("worker.throttle_wait_frac", "frac", throttleNs/max(1, workerNs))

	// heat and mover.
	res.put("mover.promoted", "count", float64(after.promoted-before.promoted))
	res.put("mover.demoted", "count", float64(after.demoted-before.demoted))
	res.put("mover.moved_bytes_per_read_byte", "ratio", float64(after.moved-before.moved)/max(1, readBytes))
	res.put("mover.fast_tier_read_frac", "frac", fastBytes/max(1, readBytes))
	res.put("mover.memory_read_frac", "frac", memBytes/max(1, readBytes))
	tracked := 0.0
	if hr, err := e.clients[0].fs.Heat(1, "", false); err == nil {
		tracked = float64(hr.Aggregate.TrackedBlocks)
	}
	res.put("heat.tracked_blocks", "count", tracked)

	// storage: what the media hold at the end.
	ratio, tiers := storedBytes(e, wl.liveBytes(e))
	res.put("stored_bytes_per_user_byte", "ratio", ratio)
	res.put("storage.used_bytes.memory", "B", float64(tiers[core.TierMemory]))
	res.put("storage.used_bytes.ssd", "B", float64(tiers[core.TierSSD]))
	res.put("storage.used_bytes.hdd", "B", float64(tiers[core.TierHDD]))

	// bufpool and runtime: the process is the cluster, so these cover
	// clients, master and workers together.
	gets, fresh := after.buf.Gets-before.buf.Gets, after.buf.Misses-before.buf.Misses
	res.put("bufpool.fresh_frac", "frac", float64(fresh)/float64(max(1, gets)))
	res.put("runtime.alloc_bytes_per_op", "B", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/iters)
	res.put("runtime.cpu_s_per_op", "s", (after.cpu-before.cpu).Seconds()/iters)
	res.put("runtime.gc_pause_ms", "ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	res.put("runtime.peak_heap_mb", "MiB", float64(p.peakHeap)/(1<<20))

	// trace: what the tracing itself cost and how much of it joined.
	sort.Float64s(tracedOps)
	res.put("trace.overhead_frac", "frac", 1-median(tracedOps)/ref.opsPerSec)
	res.put("trace.span_count", "count", float64(len(j.spans)))
	res.put("trace.join_frac", "frac", float64(j.complete)/iters)

	runProbes(cfg, e, wl.shape(), res)
}
