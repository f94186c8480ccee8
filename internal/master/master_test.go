package master

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/blockmgmt"
	"repro/internal/core"
	"repro/internal/rpc"
)

func testMaster(t testing.TB, mutate ...func(*Config)) *Master {
	t.Helper()
	cfg := Config{
		ListenAddr:      "127.0.0.1:0",
		BlockSize:       4 << 20,
		MonitorInterval: 25 * time.Millisecond,
		WorkerTimeout:   500 * time.Millisecond,
	}
	for _, fn := range mutate {
		fn(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("master.New: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// registerFakeWorker registers a synthetic worker directly through the
// RPC service handler (no real worker process needed).
func registerFakeWorker(t testing.TB, m *Master, id, rack string, media ...rpc.MediaStat) {
	t.Helper()
	svc := &Service{m: m}
	err := svc.Register(&rpc.RegisterArgs{
		ID:       core.WorkerID(id),
		Node:     id,
		Rack:     rack,
		DataAddr: "127.0.0.1:1",
		NetMBps:  1250,
		Media:    media,
	}, &rpc.RegisterReply{})
	if err != nil {
		t.Fatalf("Register(%s): %v", id, err)
	}
}

// beat delivers one heartbeat and returns the commands its reply hands
// the worker.
func beat(t testing.TB, m *Master, args *rpc.HeartbeatArgs) []rpc.Command {
	t.Helper()
	var reply rpc.HeartbeatReply
	if err := (&Service{m: m}).Heartbeat(args, &reply); err != nil {
		t.Fatal(err)
	}
	return reply.Commands
}

// received is the heartbeat with which a worker confirms a finished
// copy of blk on storage.
func received(t testing.TB, m *Master, worker core.WorkerID, storage core.StorageID, blk core.Block) []rpc.Command {
	t.Helper()
	return beat(t, m, &rpc.HeartbeatArgs{ID: worker, Received: []rpc.StoredBlock{{Storage: storage, Block: blk}}})
}

// listing is a heartbeat carrying the worker's full block listing: blk
// on each given storage, and nothing else.
func listing(t testing.TB, m *Master, worker core.WorkerID, blk core.Block, storages ...core.StorageID) []rpc.Command {
	t.Helper()
	args := &rpc.HeartbeatArgs{ID: worker, Listing: true}
	for _, s := range storages {
		args.Blocks = append(args.Blocks, rpc.StoredBlock{Storage: s, Block: blk})
	}
	return beat(t, m, args)
}

func mediaStat(id string, tier core.StorageTier, capBytes int64, w, r float64) rpc.MediaStat {
	return rpc.MediaStat{
		ID: core.StorageID(id), Tier: tier,
		Capacity: capBytes, Remaining: capBytes,
		WriteMBps: w, ReadMBps: r,
	}
}

func TestTierReportsAggregation(t *testing.T) {
	m := testMaster(t)
	registerFakeWorker(t, m, "w1", "/r1",
		mediaStat("w1:mem0", core.TierMemory, 100, 1000, 2000),
		mediaStat("w1:hdd0", core.TierHDD, 400, 120, 170),
	)
	registerFakeWorker(t, m, "w2", "/r2",
		mediaStat("w2:hdd0", core.TierHDD, 400, 140, 190),
	)
	reports := m.tierReports()
	if len(reports) != 2 {
		t.Fatalf("reports = %d tiers, want 2", len(reports))
	}
	if reports[0].Tier != core.TierMemory || reports[1].Tier != core.TierHDD {
		t.Fatalf("tier order wrong: %+v", reports)
	}
	hdd := reports[1]
	if hdd.NumMedia != 2 || hdd.NumWorkers != 2 || hdd.Capacity != 800 {
		t.Errorf("hdd aggregate = %+v", hdd)
	}
	if hdd.WriteThruMBps != 130 { // (120+140)/2
		t.Errorf("hdd avg write = %v, want 130", hdd.WriteThruMBps)
	}
}

func TestHeartbeatUnknownWorkerDemandsReRegistration(t *testing.T) {
	m := testMaster(t)
	svc := &Service{m: m}
	err := svc.Heartbeat(&rpc.HeartbeatArgs{ID: "ghost"}, &rpc.HeartbeatReply{})
	if err == nil {
		t.Fatal("heartbeat from unregistered worker accepted")
	}
	if !errors.Is(rpc.DecodeError(err.Error()), core.ErrNotFound) {
		t.Errorf("err = %v, want wrapped ErrNotFound", err)
	}
}

func TestWorkerExpiry(t *testing.T) {
	m := testMaster(t)
	registerFakeWorker(t, m, "w1", "/r1", mediaStat("w1:hdd0", core.TierHDD, 400, 120, 170))
	if m.NumWorkers() != 1 {
		t.Fatal("worker not registered")
	}
	// Without heartbeats, the monitor expires the worker.
	deadline := time.Now().Add(5 * time.Second)
	for m.NumWorkers() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never expired")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestSnapshotCaching(t *testing.T) {
	m := testMaster(t)
	registerFakeWorker(t, m, "w1", "/r1", mediaStat("w1:hdd0", core.TierHDD, 4<<30, 120, 170))
	s1 := m.snapshot()
	s2 := m.snapshot()
	if s1 != s2 {
		t.Error("snapshot not cached within TTL")
	}
	time.Sleep(snapshotTTL + 10*time.Millisecond)
	s3 := m.snapshot()
	if s3 == s1 {
		t.Error("snapshot cache never expires")
	}
	// A membership change is not cached over: a block allocated right
	// after a registration may land on the new worker.
	registerFakeWorker(t, m, "w2", "/r2", mediaStat("w2:hdd0", core.TierHDD, 4<<30, 120, 170))
	svc := &Service{m: m}
	if err := svc.Create(&rpc.CreateArgs{Path: "/f", RepVector: core.NewReplicationVector(0, 0, 2, 0, 0)}, &rpc.CreateReply{}); err != nil {
		t.Fatal(err)
	}
	var reply rpc.AddBlockReply
	if err := svc.AddBlock(&rpc.AddBlockArgs{Path: "/f"}, &reply); err != nil || len(reply.Located.Locations) != 2 {
		t.Errorf("AddBlock right after Register placed on %+v (err %v), want both workers", reply.Located.Locations, err)
	}
	if err := m.decommission("w2", ""); err != nil {
		t.Fatal(err)
	}
	if _, still := m.snapshot().Workers["w2"]; still {
		t.Error("snapshot right after a decommission still holds the worker")
	}
}

func TestSnapshotIncludesScheduledLoad(t *testing.T) {
	m := testMaster(t)
	registerFakeWorker(t, m, "w1", "/r1", mediaStat("w1:hdd0", core.TierHDD, 400, 120, 170))
	// Three pipelines handed out and not yet confirmed.
	for id := core.BlockID(1); id <= 3; id++ {
		m.blocks.AddBlock(core.Block{ID: id, GenStamp: 1}, core.ReplicationVectorFromFactor(1),
			blockmgmt.Replica{Worker: "w1", Storage: "w1:hdd0", Tier: core.TierHDD})
	}
	time.Sleep(snapshotTTL + 10*time.Millisecond) // bust the cache
	snap := m.snapshot()
	med, ok := snap.MediaByID("w1:hdd0")
	if !ok || med.Connections != 3 {
		t.Errorf("snapshot connections = %+v, want scheduled load 3", med)
	}
}

func TestServiceNamespaceOpsWithoutWorkers(t *testing.T) {
	m := testMaster(t)
	svc := &Service{m: m}
	if err := svc.Mkdir(&rpc.MkdirArgs{Path: "/d", Parents: true}, &rpc.MkdirReply{}); err != nil {
		t.Fatal(err)
	}
	var list rpc.ListReply
	if err := svc.List(&rpc.ListArgs{Path: "/"}, &list); err != nil || len(list.Entries) != 1 {
		t.Fatalf("List = %+v, %v", list, err)
	}
	// AddBlock with no workers must fail with ErrNoWorkers, not panic.
	if err := svc.Create(&rpc.CreateArgs{
		Path: "/d/f", RepVector: core.ReplicationVectorFromFactor(1),
	}, &rpc.CreateReply{}); err != nil {
		t.Fatal(err)
	}
	err := svc.AddBlock(&rpc.AddBlockArgs{Path: "/d/f"}, &rpc.AddBlockReply{})
	if err == nil {
		t.Fatal("AddBlock with no workers succeeded")
	}
	if !errors.Is(rpc.DecodeError(err.Error()), core.ErrNoWorkers) {
		t.Errorf("err = %v, want wrapped ErrNoWorkers", err)
	}
}

func TestBlockReportReconcilesLostReplicas(t *testing.T) {
	m := testMaster(t)
	registerFakeWorker(t, m, "w1", "/r1", mediaStat("w1:hdd0", core.TierHDD, 4<<30, 120, 170))
	svc := &Service{m: m}

	// Create a file with one block and pretend w1 stored it.
	if err := svc.Create(&rpc.CreateArgs{Path: "/f", RepVector: core.ReplicationVectorFromFactor(1)}, &rpc.CreateReply{}); err != nil {
		t.Fatal(err)
	}
	var reply rpc.AddBlockReply
	if err := svc.AddBlock(&rpc.AddBlockArgs{Path: "/f"}, &reply); err != nil {
		t.Fatal(err)
	}
	blk := reply.Located.Block
	blk.NumBytes = 100
	received(t, m, "w1", "w1:hdd0", blk)
	if got := len(m.blocks.Replicas(blk.ID)); got != 1 {
		t.Fatalf("replicas = %d, want 1", got)
	}

	// One empty listing may have been built before the write finished;
	// the second consecutive one means the replica is gone.
	listing(t, m, "w1", blk)
	if got := len(m.blocks.Replicas(blk.ID)); got != 1 {
		t.Fatalf("replicas after one empty listing = %d, want 1", got)
	}
	listing(t, m, "w1", blk)
	if got := len(m.blocks.Replicas(blk.ID)); got != 0 {
		t.Errorf("replicas after two empty listings = %d, want 0", got)
	}
}

// deletes returns the storages cmds order blk deleted from.
func deletes(cmds []rpc.Command, blk core.BlockID) (out []core.StorageID) {
	for _, c := range cmds {
		if c.Kind == rpc.CmdDelete && c.Block.ID == blk {
			out = append(out, c.Target)
		}
	}
	return out
}

func TestBlockReportRejectsUnknownBlocks(t *testing.T) {
	m := testMaster(t)
	registerFakeWorker(t, m, "w1", "/r1", mediaStat("w1:hdd0", core.TierHDD, 4<<30, 120, 170))
	// List a block the namespace never allocated: the reply to that very
	// heartbeat orders it deleted.
	orphan := core.Block{ID: 4242, GenStamp: 1, NumBytes: 10}
	cmds := listing(t, m, "w1", orphan, "w1:hdd0")
	if got := deletes(cmds, orphan.ID); len(got) != 1 || got[0] != "w1:hdd0" {
		t.Errorf("no delete command for orphan block; commands = %+v", cmds)
	}
}

// The client's commit, sent only after a clean end-to-end ack, is what
// confirms a pipeline; a failed pipeline leaves nothing live, and the
// replica a stage stored anyway goes at that worker's next listing.
func TestCommitConfirmsPipelineAndListingDeletesAbandonedOrphan(t *testing.T) {
	m := testMaster(t, func(cfg *Config) { cfg.MonitorInterval = time.Hour })
	registerFakeWorker(t, m, "w1", "/r1", mediaStat("w1:hdd0", core.TierHDD, 4<<30, 120, 170))
	registerFakeWorker(t, m, "w2", "/r2", mediaStat("w2:hdd0", core.TierHDD, 4<<30, 120, 170))
	svc := &Service{m: m}
	if err := svc.Create(&rpc.CreateArgs{Path: "/f", RepVector: core.ReplicationVectorFromFactor(2)}, &rpc.CreateReply{}); err != nil {
		t.Fatal(err)
	}
	addBlock := func() core.LocatedBlock {
		t.Helper()
		var reply rpc.AddBlockReply
		if err := svc.AddBlock(&rpc.AddBlockArgs{Path: "/f"}, &reply); err != nil {
			t.Fatal(err)
		}
		if len(reply.Located.Locations) != 2 {
			t.Fatalf("pipeline = %+v, want both workers", reply.Located.Locations)
		}
		return reply.Located
	}
	sameMedia := func(got []blockmgmt.Replica, want []core.BlockLocation) bool {
		if len(got) != len(want) {
			return false
		}
		for _, l := range want {
			if !slices.ContainsFunc(got, func(r blockmgmt.Replica) bool { return r.Storage == l.Storage && r.Worker == l.Worker }) {
				return false
			}
		}
		return true
	}

	ok := addBlock()
	if got := m.blocks.Replicas(ok.Block.ID); len(got) != 0 {
		t.Fatalf("live replicas before the commit = %+v, want none", got)
	}
	ok.Block.NumBytes = 1 << 20
	if err := svc.CommitBlock(&rpc.CommitBlockArgs{Path: "/f", Block: ok.Block}, &rpc.CommitBlockReply{}); err != nil {
		t.Fatal(err)
	}
	if got := m.blocks.Replicas(ok.Block.ID); !sameMedia(got, ok.Locations) {
		t.Errorf("live replicas after the commit = %+v, want the pipeline %+v", got, ok.Locations)
	}
	for _, l := range ok.Locations {
		if n := m.blocks.PendingAdds(l.Storage); n != 0 {
			t.Errorf("pending-adds on %s after the commit = %d, want 0", l.Storage, n)
		}
	}
	if bad := m.CheckReplicas(); len(bad) != 0 {
		t.Errorf("life-cycle check after the commit: %v", bad)
	}

	failed := addBlock()
	if err := svc.AbandonBlock(&rpc.AbandonBlockArgs{Path: "/f", Block: failed.Block}, &rpc.AbandonBlockReply{}); err != nil {
		t.Fatal(err)
	}
	if _, known := m.blocks.Info(failed.Block.ID); known {
		t.Errorf("abandoned block still in the block map")
	}
	head := failed.Locations[0]
	if cmds := beat(t, m, &rpc.HeartbeatArgs{ID: head.Worker}); len(deletes(cmds, failed.Block.ID)) != 0 {
		t.Errorf("delete ordered before any listing showed the orphan: %+v", cmds)
	}
	cmds := listing(t, m, head.Worker, failed.Block, head.Storage)
	if got := deletes(cmds, failed.Block.ID); len(got) != 1 || got[0] != head.Storage {
		t.Errorf("listing the abandoned block's orphan ordered deletes %v, want [%s]", got, head.Storage)
	}
	if bad := m.CheckReplicas(); len(bad) != 0 {
		t.Errorf("life-cycle check after the abandon: %v", bad)
	}
}

func TestGetWorkerReports(t *testing.T) {
	m := testMaster(t)
	registerFakeWorker(t, m, "w2", "/r2", mediaStat("w2:hdd0", core.TierHDD, 400, 120, 170))
	registerFakeWorker(t, m, "w1", "/r1",
		mediaStat("w1:hdd0", core.TierHDD, 400, 120, 170),
		mediaStat("w1:mem0", core.TierMemory, 100, 1000, 2000),
	)
	svc := &Service{m: m}
	var reply rpc.WorkerReportsReply
	if err := svc.GetWorkerReports(&rpc.WorkerReportsArgs{}, &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Workers) != 2 {
		t.Fatalf("workers = %d, want 2", len(reply.Workers))
	}
	// Sorted by ID; media sorted within each worker.
	if reply.Workers[0].ID != "w1" || reply.Workers[1].ID != "w2" {
		t.Errorf("worker order: %+v", reply.Workers)
	}
	if len(reply.Workers[0].Media) != 2 || reply.Workers[0].Media[0].ID != "w1:hdd0" {
		t.Errorf("media order: %+v", reply.Workers[0].Media)
	}
}

func TestHTTPStatusEndpoint(t *testing.T) {
	m := testMaster(t)
	registerFakeWorker(t, m, "w1", "/r1", mediaStat("w1:hdd0", core.TierHDD, 400<<20, 120, 170))
	if err := m.ns.Mkdir("/d", true, "u"); err != nil {
		t.Fatal(err)
	}

	addr, err := m.ServeHTTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusReport
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Directories != 2 { // root + /d
		t.Errorf("directories = %d, want 2", st.Directories)
	}
	if len(st.Workers) != 1 || st.Workers[0].ID != "w1" {
		t.Errorf("workers = %+v", st.Workers)
	}
	if len(st.Tiers) != 1 || st.Tiers[0].Tier != "HDD" {
		t.Errorf("tiers = %+v", st.Tiers)
	}
	if st.Policies["placement"] != "MOOP" {
		t.Errorf("policies = %v", st.Policies)
	}

	// Human-readable overview.
	resp2, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(body), "OctopusFS master") {
		t.Errorf("overview page: %q", body)
	}
}
