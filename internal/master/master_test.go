package master

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
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
	if err := svc.BlockReceived(&rpc.BlockReceivedArgs{
		ID: "w1", Storage: "w1:hdd0", Block: blk,
	}, &rpc.BlockReceivedReply{}); err != nil {
		t.Fatal(err)
	}
	if got := len(m.blocks.Replicas(blk.ID)); got != 1 {
		t.Fatalf("replicas = %d, want 1", got)
	}

	// One empty report may have been generated before the write
	// finished; the second consecutive one means the replica is gone.
	if err := svc.BlockReport(&rpc.BlockReportArgs{ID: "w1"}, &rpc.BlockReportReply{}); err != nil {
		t.Fatal(err)
	}
	if got := len(m.blocks.Replicas(blk.ID)); got != 1 {
		t.Fatalf("replicas after one empty report = %d, want 1", got)
	}
	if err := svc.BlockReport(&rpc.BlockReportArgs{ID: "w1"}, &rpc.BlockReportReply{}); err != nil {
		t.Fatal(err)
	}
	if got := len(m.blocks.Replicas(blk.ID)); got != 0 {
		t.Errorf("replicas after two empty reports = %d, want 0", got)
	}
}

func TestBlockReportRejectsUnknownBlocks(t *testing.T) {
	m := testMaster(t)
	registerFakeWorker(t, m, "w1", "/r1", mediaStat("w1:hdd0", core.TierHDD, 4<<30, 120, 170))
	svc := &Service{m: m}
	// Report a block the namespace never allocated: the master should
	// schedule its deletion on the next heartbeat.
	orphan := core.Block{ID: 4242, GenStamp: 1, NumBytes: 10}
	if err := svc.BlockReport(&rpc.BlockReportArgs{
		ID:     "w1",
		Blocks: []rpc.StoredBlock{{Storage: "w1:hdd0", Block: orphan}},
	}, &rpc.BlockReportReply{}); err != nil {
		t.Fatal(err)
	}
	var hb rpc.HeartbeatReply
	if err := svc.Heartbeat(&rpc.HeartbeatArgs{ID: "w1"}, &hb); err != nil {
		t.Fatal(err)
	}
	foundDelete := false
	for _, cmd := range hb.Commands {
		if cmd.Kind == rpc.CmdDelete && cmd.Block.ID == orphan.ID {
			foundDelete = true
		}
	}
	if !foundDelete {
		t.Errorf("no delete command for orphan block; commands = %+v", hb.Commands)
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
