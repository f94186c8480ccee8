package master

import (
	"strings"
	"testing"

	"repro/internal/blockmgmt"
	"repro/internal/core"
	"repro/internal/rpc"
)

// These tests replay, through the Service handlers, the interleaving
// that used to lose blocks: the master retires a replica, and a block
// listing built before the worker ran the delete still lists it.

// lifecycleHarness drives one master by hand and remembers every command
// any worker was ever handed.
type lifecycleHarness struct {
	t       *testing.T
	m       *Master
	svc     *Service
	handed  map[core.WorkerID][]rpc.Command
	deleted map[core.StorageID]int // CmdDelete count per target
}

func newLifecycleHarness(t *testing.T) *lifecycleHarness {
	m := moverTestMaster(t)
	return &lifecycleHarness{t: t, m: m, svc: &Service{m: m},
		handed: make(map[core.WorkerID][]rpc.Command), deleted: make(map[core.StorageID]int)}
}

// record remembers the commands a heartbeat reply handed the worker,
// without executing them.
func (h *lifecycleHarness) record(worker core.WorkerID, cmds []rpc.Command) {
	h.handed[worker] = append(h.handed[worker], cmds...)
	for _, c := range cmds {
		if c.Kind == rpc.CmdDelete {
			h.deleted[c.Target]++
		}
	}
}

// heartbeat delivers the worker's queued commands, as its next plain
// heartbeat would.
func (h *lifecycleHarness) heartbeat(worker core.WorkerID) {
	h.t.Helper()
	h.record(worker, beat(h.t, h.m, &rpc.HeartbeatArgs{ID: worker}))
}

// received is the heartbeat confirming the worker's copy of blk.
func (h *lifecycleHarness) received(worker core.WorkerID, storage core.StorageID, blk core.Block) {
	h.t.Helper()
	h.record(worker, received(h.t, h.m, worker, storage, blk))
}

// report is the heartbeat whose listing holds blk on each given storage.
func (h *lifecycleHarness) report(worker core.WorkerID, blk core.Block, storages ...core.StorageID) {
	h.t.Helper()
	h.record(worker, listing(h.t, h.m, worker, blk, storages...))
}

// liveOn asserts the block's live replicas are exactly the given media.
func (h *lifecycleHarness) liveOn(when string, blk core.Block, want ...core.StorageID) {
	h.t.Helper()
	got := h.m.blocks.Replicas(blk.ID)
	ok := len(got) == len(want)
	for i := range want {
		ok = ok && got[i].Storage == want[i]
	}
	if !ok {
		h.t.Fatalf("%s: live replicas = %+v, want %v", when, got, want)
	}
}

func TestStaleReportAfterMoveDoesNotResurrectSource(t *testing.T) {
	h := newLifecycleHarness(t)
	blk := moverTestBlock(t, h.m, "/hot", core.ReplicationVectorFromFactor(1), "w1", "w1:hdd0")
	heatUp(t, h.m, "w1", blk.ID)

	h.m.moverPass() // promote: copy to w2:mem0 scheduled
	h.heartbeat("w2")
	h.received("w2", "w2:mem0", blk)
	h.m.moverPass() // the HDD copy is retired
	h.liveOn("after the move", blk, "w2:mem0")
	h.heartbeat("w1")
	if h.deleted["w1:hdd0"] != 1 {
		t.Fatalf("deletes handed to w1 after the move = %d, want 1", h.deleted["w1:hdd0"])
	}

	// w1 generated this report before it ran the delete.
	h.report("w1", blk, "w1:hdd0")
	h.liveOn("after the stale report", blk, "w2:mem0")
	h.m.repairBlocks()
	h.m.moverPass()
	h.heartbeat("w1")
	h.heartbeat("w2")
	if h.deleted["w1:hdd0"] != 2 {
		t.Errorf("stale report did not re-issue the delete: %d handed to w1, want 2", h.deleted["w1:hdd0"])
	}

	// The worker runs the deletes (the second finds nothing to remove);
	// its fresh reports stop listing the replica, which clears the
	// tombstone: the medium may host the block again.
	h.report("w1", blk)
	h.report("w2", blk, "w2:mem0")
	h.report("w1", blk)
	h.m.repairBlocks()
	h.heartbeat("w1")
	h.heartbeat("w2")

	h.liveOn("at the end", blk, "w2:mem0")
	if h.deleted["w1:hdd0"] != 2 {
		t.Errorf("deletes handed to w1 = %d in all, want 2", h.deleted["w1:hdd0"])
	}
	if !h.m.blocks.Schedule(blk.ID, blockmgmt.Replica{Worker: "w1", Storage: "w1:hdd0", Tier: core.TierHDD}, repairExpiryTicks, "") {
		t.Error("tombstone on w1:hdd0 not cleared by two omitting reports")
	}
	if h.deleted["w2:mem0"] != 0 {
		t.Errorf("the new copy was ordered deleted %d times: %+v", h.deleted["w2:mem0"], h.handed["w2"])
	}
	if bad := h.m.CheckReplicas(); len(bad) != 0 {
		t.Errorf("life-cycle check: %v", bad)
	}
}

func TestStaleReportAfterBadBlockDoesNotServeCorruptReplica(t *testing.T) {
	h := newLifecycleHarness(t)
	blk := moverTestBlock(t, h.m, "/f", core.ReplicationVectorFromFactor(2), "w1", "w1:hdd0")
	h.received("w2", "w2:hdd0", blk)

	if err := h.svc.ReportBadBlock(&rpc.ReportBadBlockArgs{Block: blk, Storage: "w1:hdd0", Worker: "w1"},
		&rpc.ReportBadBlockReply{}); err != nil {
		t.Fatal(err)
	}
	h.liveOn("after the corruption report", blk, "w2:hdd0")
	h.heartbeat("w1")

	h.report("w1", blk, "w1:hdd0") // generated before the delete ran
	h.liveOn("after the stale report", blk, "w2:hdd0")
	var locs rpc.GetBlockLocationsReply
	if err := h.svc.GetBlockLocations(&rpc.GetBlockLocationsArgs{Path: "/f", Length: -1}, &locs); err != nil {
		t.Fatal(err)
	}
	for _, loc := range locs.Blocks[0].Locations {
		if loc.Storage == "w1:hdd0" {
			t.Errorf("reader sent back to the corrupt replica: %+v", locs.Blocks[0].Locations)
		}
	}
	h.heartbeat("w1")
	if h.deleted["w1:hdd0"] != 2 {
		t.Errorf("deletes handed to w1 = %d, want the original and the re-issue", h.deleted["w1:hdd0"])
	}

	// A corrupt replica that is the block's last is kept: there is
	// nothing to repair from, and a reader's word is not proof.
	if err := h.svc.ReportBadBlock(&rpc.ReportBadBlockArgs{Block: blk, Storage: "w2:hdd0", Worker: "w2"},
		&rpc.ReportBadBlockReply{}); err != nil {
		t.Fatal(err)
	}
	h.liveOn("after a report against the last replica", blk, "w2:hdd0")
	h.heartbeat("w2")
	if h.deleted["w2:hdd0"] != 0 {
		t.Errorf("the last replica was ordered deleted: %+v", h.handed["w2"])
	}
	evs := h.m.Journal().Since(0, evBlockCorrupt, 0).Entries
	if len(evs) != 2 || !strings.Contains(evs[0].Message, "deletion scheduled") || !strings.Contains(evs[1].Message, "not deleted") {
		t.Errorf("block_corrupt events = %+v, want one deletion scheduled, then one not deleted", evs)
	}
	if bad := h.m.CheckReplicas(); len(bad) != 0 {
		t.Errorf("life-cycle check: %v", bad)
	}
}

func TestStaleReportAfterExcessRemovalKeepsSurvivor(t *testing.T) {
	h := newLifecycleHarness(t)
	blk := moverTestBlock(t, h.m, "/f", core.ReplicationVectorFromFactor(2), "w1", "w1:hdd0")
	h.received("w2", "w2:hdd0", blk)
	if err := h.svc.SetReplication(&rpc.SetReplicationArgs{
		Path: "/f", RepVector: core.ReplicationVectorFromFactor(1),
	}, &rpc.SetReplicationReply{}); err != nil {
		t.Fatal(err)
	}

	h.m.repairBlocks() // one of the two is excess
	live := h.m.blocks.Replicas(blk.ID)
	if len(live) != 1 {
		t.Fatalf("live replicas after excess removal = %+v, want 1", live)
	}
	survivor := live[0]
	victim, victimWorker := core.StorageID("w1:hdd0"), core.WorkerID("w1")
	if survivor.Storage == victim {
		victim, victimWorker = "w2:hdd0", "w2"
	}
	h.heartbeat(victimWorker)

	h.report(victimWorker, blk, victim) // generated before the delete ran
	h.liveOn("after the stale report", blk, survivor.Storage)
	h.m.repairBlocks()
	h.heartbeat("w1")
	h.heartbeat("w2")
	h.report(victimWorker, blk) // the delete ran
	h.report(victimWorker, blk)
	h.m.repairBlocks()
	h.heartbeat("w1")
	h.heartbeat("w2")

	h.liveOn("at the end", blk, survivor.Storage)
	if h.deleted[survivor.Storage] != 0 {
		t.Errorf("the surviving replica was ordered deleted: %+v", h.handed[survivor.Worker])
	}
	if h.deleted[victim] != 2 {
		t.Errorf("deletes for the excess replica = %d, want the original and the re-issue", h.deleted[victim])
	}
	if bad := h.m.CheckReplicas(); len(bad) != 0 {
		t.Errorf("life-cycle check: %v", bad)
	}
}
