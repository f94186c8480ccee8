package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/blockmgmt"
	"repro/internal/core"
	"repro/internal/heat"
	"repro/internal/namespace"
	"repro/internal/policy"
	"repro/internal/rpc"
	"repro/internal/storage"
	"repro/internal/topology"
)

// runProbes calls each lower layer's public functions directly with
// the workload's own inputs (block size, replication vector, namespace
// population), bypassing the layers above it. A probe that cannot run
// reports 0 and says why on standard error; the missing-metric check
// does not hide it, because a traced run also reports the layer from
// the workload's own records.
func runProbes(cfg runConfig, e *env, sh probeShape, res *result) {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x70726f6265))
	block := make([]byte, sh.blockBytes)
	rng.Read(block)
	reps := cfg.Size.probeReps

	probeMasterRPC(e, reps*5, res)
	probeNamespace(filepath.Join(e.dir, "probe-ns"), sh, cfg.Size.probeNamespace, rng, res)
	probePolicy(sh, reps*10, rng, res)
	probeBlockLifecycle(sh, reps*50, res)
	probeHeat(sh, res)
	probeFraming(block, reps, res)
	probeDirectBlocks(e, block, reps, res)
	probeStorage(filepath.Join(e.dir, "probe-media"), block, reps, res)
}

// timeEach runs fn n times and returns the per-call durations in
// microseconds, ascending.
func timeEach(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		start := time.Now()
		fn(i)
		out[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	sort.Float64s(out)
	return out
}

func probeFailed(what string, err error) {
	fmt.Fprintf(os.Stderr, "benchmark: probe %s: %v\n", what, err)
}

// probeMasterRPC isolates what one metadata RPC costs outside the
// master's handler: client-observed stat latency minus the audit
// log's TotalNs for the same calls, on an otherwise idle cluster —
// socket, net/rpc and gob on both sides.
func probeMasterRPC(e *env, n int, res *result) {
	fs, log := e.clients[0].fs, e.cluster.Master.AuditLog()
	const path = "/probe-stat"
	overhead := 0.0
	if err := fs.Mkdir(path, true); err != nil {
		probeFailed("master rpc", err)
	} else {
		cur := log.Since(0, "", 0).Next
		seen := timeEach(n, func(int) { fs.Stat(path) })
		var handler []float64
		for _, a := range log.Since(cur, "getFileInfo", 0).Entries {
			if a.Path == path {
				handler = append(handler, float64(a.TotalNs)/1e3)
			}
		}
		sort.Float64s(handler)
		overhead = quantile(seen, 0.5) - quantile(handler, 0.5)
	}
	res.put("master.rpc_overhead_p50_us", "us", overhead)
}

// probeNamespace replays a seeded metadata stream on a bare, persistent
// namespace.Namespace of the workload's population: the tree, the lock
// and the edit log without RPC, audit or the master's handlers.
func probeNamespace(dir string, sh probeShape, n int, rng *rand.Rand, res *result) {
	lat := map[string][]float64{}
	defer func() {
		for _, op := range []string{"stat", "list", "create", "rename", "delete"} {
			v := lat[op]
			sort.Float64s(v)
			res.put("namespace.direct."+op+"_p50_us", "us", quantile(v, 0.5))
		}
	}()
	ns, err := namespace.Open(dir)
	if err != nil {
		probeFailed("namespace", err)
		return
	}
	defer ns.Close()
	rv := core.ReplicationVectorFromFactor(1)
	dirOf := func(i int) string { return fmt.Sprintf("/p/d%03d", i%sh.dirs) }
	create := func(p string) error {
		// What one client create of an empty file does to the namespace.
		if _, err := ns.Create(p, rv, sh.blockBytes, false, "probe"); err != nil {
			return err
		}
		return ns.Complete(p, nil)
	}
	for d := 0; d < sh.dirs; d++ {
		if err := ns.Mkdir(dirOf(d), true, "probe"); err != nil {
			probeFailed("namespace", err)
			return
		}
	}
	live := make([]string, 0, sh.files+n)
	next := 0
	newPath := func() string { next++; return fmt.Sprintf("%s/f%07d", dirOf(rng.Intn(sh.dirs)), next) }
	for i := 0; i < sh.files; i++ {
		p := newPath()
		if err := create(p); err != nil {
			probeFailed("namespace", err)
			return
		}
		live = append(live, p)
	}
	timed := func(op string, fn func() error) {
		start := time.Now()
		err := fn()
		lat[op] = append(lat[op], float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil {
			probeFailed("namespace "+op, err)
		}
	}
	for i := 0; i < n; i++ {
		k := rng.Intn(len(live))
		switch i % 5 {
		case 0:
			timed("stat", func() error { _, err := ns.Status(live[k]); return err })
		case 1:
			timed("list", func() error { _, err := ns.List(dirOf(rng.Intn(sh.dirs))); return err })
		case 2:
			p := newPath()
			timed("create", func() error { return create(p) })
			live = append(live, p)
		case 3:
			p := newPath()
			timed("rename", func() error { return ns.Rename(live[k], p) })
			live[k] = p
		case 4:
			timed("delete", func() error { _, err := ns.Delete(live[k], false); return err })
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
}

// synthSnapshot builds a cluster view of n workers shaped like the
// test clusters: memory, SSD and three HDDs each, two racks.
func synthSnapshot(n int) *policy.Snapshot {
	s := &policy.Snapshot{Workers: make(map[core.WorkerID]policy.WorkerInfo), NumRacks: 2}
	for i := 0; i < n; i++ {
		id := core.WorkerID(fmt.Sprintf("w%03d", i))
		rack := fmt.Sprintf("/rack%d", i%2+1)
		s.Workers[id] = policy.WorkerInfo{ID: id, Node: string(id), Rack: rack, NetThruMBps: 1000}
		add := func(kind string, tier core.StorageTier, capacity int64, w, r float64) {
			s.Media = append(s.Media, policy.Media{
				ID: core.StorageID(string(id) + ":" + kind), Worker: id, Node: string(id), Tier: tier, Rack: rack,
				Capacity: capacity, Remaining: capacity / 2, WriteThruMBps: w, ReadThruMBps: r,
			})
		}
		add("mem0", core.TierMemory, 64<<20, 1897.4, 3224.8)
		add("ssd0", core.TierSSD, 256<<20, 340.6, 419.5)
		for d := 0; d < 3; d++ {
			add(fmt.Sprintf("hdd%d", d), core.TierHDD, 256<<20, 126.3, 177.1)
		}
	}
	return s
}

// probePolicy times the placement decision for the workload's vector
// on 4 and 100 workers, and the retrieval ordering of one block's
// replicas.
func probePolicy(sh probeShape, n int, rng *rand.Rand, res *result) {
	moop := policy.NewMOOPPolicy(policy.DefaultMOOPConfig())
	var placed []policy.Media
	for _, workers := range []int{4, 100} {
		snap := synthSnapshot(workers)
		req := policy.PlacementRequest{Snapshot: snap, RepVector: sh.rv, BlockSize: sh.blockBytes, Rand: rng}
		lat := timeEach(n, func(int) {
			media, err := moop.PlaceReplicas(req)
			if err != nil {
				probeFailed("policy", err)
			}
			placed = media
		})
		res.put(fmt.Sprintf("policy.place_p50_us.w%d", workers), "us", quantile(lat, 0.5))
		if workers == 4 {
			order := policy.NewOctopusRetrievalPolicy()
			rreq := policy.RetrievalRequest{Snapshot: snap, Client: topology.Location{}, Replicas: placed, Rand: rng}
			lat := timeEach(n, func(int) { order.Order(rreq) })
			res.put("policy.order_p50_us", "us", quantile(lat, 0.5))
		}
	}
}

// probeBlockLifecycle times what the block map does for one written
// block: AddBlock, one AddReplica per replica, CommitBlock.
func probeBlockLifecycle(sh probeShape, n int, res *result) {
	mgr := blockmgmt.NewManager()
	replicas := max(1, sh.rv.Total())
	lat := timeEach(n, func(i int) {
		b := core.Block{ID: core.BlockID(i + 1), GenStamp: 1, NumBytes: sh.blockBytes}
		mgr.AddBlock(b, sh.rv)
		for r := 0; r < replicas; r++ {
			mgr.AddReplica(b, blockmgmt.Replica{
				Worker: core.WorkerID(fmt.Sprintf("w%d", r)), Storage: core.StorageID(fmt.Sprintf("w%d:hdd0", r)), Tier: core.TierHDD,
			})
		}
		mgr.CommitBlock(b)
	})
	res.put("blockmgmt.block_lifecycle_p50_us", "us", quantile(lat, 0.5))
}

// probeHeat times the one atomic add the data path pays per block op.
func probeHeat(sh probeShape, res *result) {
	const touches = 200000
	col := heat.NewCollector()
	blocks := max(1, sh.files)
	start := time.Now()
	for i := 0; i < touches; i++ {
		col.Touch(core.BlockID(i%blocks+1), heat.Read, sh.blockBytes)
	}
	res.put("heat.touch_ns", "ns", float64(time.Since(start).Nanoseconds())/touches)
}

// probeFraming times the control-frame codec (one write header out and
// back through a buffer) and the packet layer's throughput on one
// block, with no socket underneath.
func probeFraming(block []byte, reps int, res *result) {
	hdr := rpc.WriteBlockHeader{
		Block: core.Block{ID: 7, GenStamp: 1, NumBytes: int64(len(block))},
		Pipeline: []rpc.PipelineTarget{
			{Worker: "node1", Address: "127.0.0.1:40001", Storage: "node1:ssd0"},
			{Worker: "node2", Address: "127.0.0.1:40002", Storage: "node2:hdd0"},
			{Worker: "node3", Address: "127.0.0.1:40003", Storage: "node3:hdd1"},
		},
		Client: "it", ReqID: rpc.NewRequestID(), SpanID: "0123456789abcdef",
	}
	var buf bytes.Buffer
	const frames = 2000
	start := time.Now()
	for i := 0; i < frames; i++ {
		buf.Reset()
		var back rpc.WriteBlockHeader
		if err := rpc.WriteFrame(&buf, hdr); err != nil {
			probeFailed("framing", err)
			break
		}
		if err := rpc.ReadFrame(&buf, &back); err != nil {
			probeFailed("framing", err)
			break
		}
	}
	res.put("rpc.frame_roundtrip_ns", "ns", float64(time.Since(start).Nanoseconds())/frames)

	var moved int64
	start = time.Now()
	for i := 0; i < reps; i++ {
		buf.Reset()
		pw := rpc.NewPacketWriter(&buf)
		_, err := pw.Write(block)
		if err == nil {
			err = pw.Close()
		}
		pw.Release()
		pr := rpc.NewPacketReader(&buf)
		n, rerr := io.Copy(io.Discard, pr)
		pr.Release()
		if err != nil || rerr != nil || n != int64(len(block)) {
			probeFailed("packets", fmt.Errorf("wrote %v, read %d bytes %v", err, n, rerr))
			break
		}
		moved += n
	}
	res.put("rpc.packet_mbps", "MiB/s", float64(moved)/(1<<20)/time.Since(start).Seconds())
}

// probeDirectBlocks streams one block straight into a pipeline of one
// and of three of the cluster's workers through rpc.OpenBlockWriter,
// with no master and no client library in the way, then reads one
// replica through rpc.OpenBlockReader. (n3 − n1) / 2 is what one
// pipeline hop costs: the split of the write path's opaque ack wait.
// The written blocks carry IDs the master never issued, so they are
// deleted here and would be garbage to a block report anyway.
func probeDirectBlocks(e *env, block []byte, reps int, res *result) {
	workers := e.cluster.Workers
	var targets []rpc.PipelineTarget
	// One HDD per hop, on distinct workers while there are enough.
	for hop := 0; hop < 3; hop++ {
		w := workers[hop%len(workers)]
		sid := core.StorageID(fmt.Sprintf("%s:hdd%d", w.ID(), hop/len(workers)))
		if _, ok := w.Media()[sid]; !ok {
			probeFailed("direct blocks", fmt.Errorf("no media %s", sid))
			break
		}
		targets = append(targets, rpc.PipelineTarget{Worker: w.ID(), Address: w.DataAddr(), Storage: sid})
	}
	nextID := uint64(1) << 40
	write := func(pipeline []rpc.PipelineTarget) (core.Block, error) {
		nextID++
		b := core.Block{ID: core.BlockID(nextID), GenStamp: 1, NumBytes: int64(len(block))}
		bw, err := rpc.OpenBlockWriter(b, pipeline, "probe")
		if err != nil {
			return b, err
		}
		if _, err := bw.Write(block); err != nil {
			bw.Abort()
			return b, err
		}
		return b, bw.Commit()
	}
	remove := func(b core.Block, pipeline []rpc.PipelineTarget) {
		for i, t := range pipeline {
			workers[i%len(workers)].Media()[t.Storage].Delete(b)
		}
	}
	for _, hops := range []int{1, 3} {
		var lat []float64
		if len(targets) >= hops {
			pipeline := targets[:hops]
			lat = timeEach(reps, func(int) {
				b, err := write(pipeline)
				if err != nil {
					probeFailed("direct block write", err)
				}
				remove(b, pipeline)
			})
		}
		res.put(fmt.Sprintf("rpc.direct_block_write_p50_ms.n%d", hops), "ms", quantile(lat, 0.5)/1e3)
	}
	// The read probe needs a replica the master will not garbage-collect
	// under it, so it writes one real single-block file and reads that
	// block from its first location.
	var lat []float64
	fs := e.clients[0].fs
	const path = "/probe-block"
	if err := fs.WriteFile(path, block, core.ReplicationVectorFromFactor(1)); err != nil {
		probeFailed("direct block read", err)
	} else if located, err := fs.GetFileBlockLocations(path, 0, -1); err != nil || len(located) != 1 || len(located[0].Locations) == 0 {
		probeFailed("direct block read", fmt.Errorf("locating %s: %v (%d blocks)", path, err, len(located)))
	} else {
		b, loc := located[0].Block, located[0].Locations[0]
		lat = timeEach(reps, func(int) {
			rc, _, err := rpc.OpenBlockReader(loc.Address, b, loc.Storage, 0, -1)
			if err == nil {
				var n int64
				n, err = io.Copy(io.Discard, rc)
				rc.Close()
				if err == nil && n != int64(len(block)) {
					err = fmt.Errorf("read %d of %d bytes", n, len(block))
				}
			}
			if err != nil {
				probeFailed("direct block read", err)
			}
		})
	}
	res.put("rpc.direct_block_read_p50_ms", "ms", quantile(lat, 0.5)/1e3)
}

// probeStorage drives bare, unthrottled storage.Media — one memory
// store, one directory store — with the workload's block: put, open
// and read back, and the checksum scrub a worker runs before serving.
func probeStorage(dir string, block []byte, reps int, res *result) {
	mbps := func(bytes int, d time.Duration) float64 { return float64(bytes) / (1 << 20) / d.Seconds() }
	capacity := int64(len(block)) * int64(reps+2)
	for _, m := range []struct {
		name string
		cfg  storage.MediaConfig
	}{
		{"memory", storage.MediaConfig{ID: "probe:mem0", Tier: core.TierMemory, Capacity: capacity}},
		{"disk", storage.MediaConfig{ID: "probe:hdd0", Tier: core.TierHDD, Capacity: capacity, Dir: dir}},
	} {
		var put, open, verify float64
		media, err := storage.OpenMedia(m.cfg)
		if err != nil {
			probeFailed("storage "+m.name, err)
		} else {
			blk := func(i int) core.Block {
				return core.Block{ID: core.BlockID(i + 1), GenStamp: 1, NumBytes: int64(len(block))}
			}
			start := time.Now()
			for i := 0; i < reps; i++ {
				if _, err := media.Put(blk(i), bytes.NewReader(block)); err != nil {
					probeFailed("storage put "+m.name, err)
					break
				}
			}
			put = mbps(reps*len(block), time.Since(start))
			start = time.Now()
			for i := 0; i < reps; i++ {
				rc, err := media.Open(blk(i))
				if err == nil {
					_, err = io.Copy(io.Discard, rc)
					rc.Close()
				}
				if err != nil {
					probeFailed("storage open "+m.name, err)
					break
				}
			}
			open = mbps(reps*len(block), time.Since(start))
			start = time.Now()
			for i := 0; i < reps; i++ {
				if err := media.Verify(blk(i)); err != nil {
					probeFailed("storage verify "+m.name, err)
					break
				}
			}
			verify = mbps(reps*len(block), time.Since(start))
			media.Close()
		}
		res.put("storage.put_mbps."+m.name, "MiB/s", put)
		res.put("storage.open_mbps."+m.name, "MiB/s", open)
		if m.name == "disk" {
			res.put("storage.verify_mbps", "MiB/s", verify)
		}
	}
}
