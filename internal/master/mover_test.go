package master

import (
	"testing"
	"time"

	"repro/internal/blockmgmt"
	"repro/internal/core"
	"repro/internal/heat"
	"repro/internal/rpc"
	"repro/internal/topology"
)

// moverTestMaster builds a master whose monitor loop never ticks (the
// tests drive moverPass/repairBlocks by hand) with two workers: w1
// carries only HDD, w2 carries memory + HDD, so promotions have
// exactly one possible destination medium.
func moverTestMaster(t *testing.T, mutate ...func(*Config)) *Master {
	t.Helper()
	base := func(cfg *Config) {
		cfg.MonitorInterval = time.Hour // passes are driven by hand
		cfg.MoverCooldown = time.Hour
	}
	m := testMaster(t, append([]func(*Config){base}, mutate...)...)
	registerFakeWorker(t, m, "w1", "/r1",
		mediaStat("w1:hdd0", core.TierHDD, 4<<30, 120, 170))
	registerFakeWorker(t, m, "w2", "/r2",
		mediaStat("w2:mem0", core.TierMemory, 1<<30, 1000, 2000),
		mediaStat("w2:hdd0", core.TierHDD, 4<<30, 120, 170))
	return m
}

// moverTestBlock creates a one-block file pinned to rv, written through
// a one-stage pipeline on the given medium, and commits it: the commit
// confirms that single replica, so the mover sees a steady, healthy
// block. The pipeline is set by hand because placement could pick
// another medium.
func moverTestBlock(t *testing.T, m *Master, path string, rv core.ReplicationVector, worker, storage string) core.Block {
	t.Helper()
	svc := &Service{m: m}
	if err := svc.Create(&rpc.CreateArgs{Path: path, RepVector: rv}, &rpc.CreateReply{}); err != nil {
		t.Fatal(err)
	}
	blk, file, err := m.ns.AddBlock(path)
	if err != nil {
		t.Fatal(err)
	}
	m.mu.RLock()
	tier := m.workers[core.WorkerID(worker)].media[core.StorageID(storage)].Tier
	m.mu.RUnlock()
	m.blocks.AddBlock(blk, rv, blockmgmt.Replica{Worker: core.WorkerID(worker), Storage: core.StorageID(storage), Tier: tier})
	m.heat.setOwner(blk.ID, file)
	blk.NumBytes = 1 << 20
	if err := svc.CommitBlock(&rpc.CommitBlockArgs{Path: path, Block: blk}, &rpc.CommitBlockReply{}); err != nil {
		t.Fatal(err)
	}
	return blk
}

// heatUp injects read heat for a block through the heartbeat piggyback
// path, making it hot enough to cross the promotion cutoff.
func heatUp(t *testing.T, m *Master, worker string, blocks ...core.BlockID) {
	t.Helper()
	svc := &Service{m: m}
	deltas := make([]heat.Delta, 0, len(blocks))
	for _, id := range blocks {
		deltas = append(deltas, heat.Delta{Block: id, ReadOps: 100, ReadBytes: 100 << 20})
	}
	if err := svc.Heartbeat(&rpc.HeartbeatArgs{ID: core.WorkerID(worker), Heat: deltas},
		&rpc.HeartbeatReply{}); err != nil {
		t.Fatal(err)
	}
}

func pendingCommands(m *Master, worker core.WorkerID) []rpc.Command {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]rpc.Command(nil), m.pending[worker]...)
}

func TestMoverPromotesHotBlock(t *testing.T) {
	m := moverTestMaster(t)
	blk := moverTestBlock(t, m, "/hot", core.NewReplicationVector(0, 0, 1, 0, 0), "w1", "w1:hdd0")
	heatUp(t, m, "w1", blk.ID)

	m.moverPass()

	st := m.moverStatus()
	if len(st.InFlight) != 1 || st.Counters.Scheduled != 1 {
		t.Fatalf("status = %d in flight / %d scheduled, want 1 / 1", len(st.InFlight), st.Counters.Scheduled)
	}
	mov := st.InFlight[0]
	if mov.Kind != rpc.MovePromote || mov.FromStorage != "w1:hdd0" || mov.ToStorage != "w2:mem0" {
		t.Fatalf("in-flight move = %+v, want promote w1:hdd0 -> w2:mem0", mov)
	}
	if mov.Outcome != rpc.MoveInFlight || mov.BeforeTiers[core.TierHDD] != 1 || mov.Heat < 90 {
		t.Errorf("in-flight record = %+v, want in_flight, HDD:1 before, heat ~100", mov)
	}
	var repl *rpc.Command
	cmds := pendingCommands(m, "w2")
	for i, c := range cmds {
		if c.Kind == rpc.CmdReplicate && c.Block.ID == blk.ID {
			repl = &cmds[i]
		}
	}
	if repl == nil || repl.Target != "w2:mem0" || len(repl.Sources) == 0 {
		t.Fatalf("replicate command for w2 = %+v, want target w2:mem0 with sources", cmds)
	}

	// Mid-move the block has one live replica and one pending-add: the
	// replication monitor must see nothing to repair and nothing excess.
	m.repairBlocks()
	if info, _ := m.blocks.Info(blk.ID); len(info.Replicas) != 1 || len(info.Pending) != 1 {
		t.Fatalf("repair monitor touched a mid-move block: %+v", info)
	}
	if cmds := pendingCommands(m, "w1"); len(cmds) != 0 {
		t.Fatalf("commands for the source worker mid-move: %+v", cmds)
	}

	// The copy lands: confirming it retires the source in the same step,
	// so the block never shows two live replicas for repair to trim.
	received(t, m, "w2", "w2:mem0", blk)
	m.repairBlocks()
	m.moverPass()

	reps := m.blocks.Replicas(blk.ID)
	if len(reps) != 1 || reps[0].Storage != "w2:mem0" {
		t.Fatalf("replicas after move = %+v, want only w2:mem0", reps)
	}
	info, ok := m.blocks.Info(blk.ID)
	if !ok {
		t.Fatal("block vanished")
	}
	if info.Expected.Tier(core.TierMemory) != 1 || info.Expected.Tier(core.TierHDD) != 0 {
		t.Fatalf("expected vector not shifted with the pin: %v", info.Expected)
	}
	if bst, ok := m.blocks.State(blk.ID); !ok || !bst.Satisfied() {
		t.Errorf("block unhealthy after move: %+v", bst)
	}
	var deleted bool
	for _, c := range pendingCommands(m, "w1") {
		if c.Kind == rpc.CmdDelete && c.Block.ID == blk.ID && c.Target == "w1:hdd0" {
			deleted = true
		}
	}
	if !deleted {
		t.Error("source replica deletion never scheduled on w1")
	}

	st = m.moverStatus()
	if len(st.InFlight) != 0 || st.Counters.Promoted != 1 || st.Counters.MovedBytes != 1<<20 {
		t.Fatalf("status after completion = %+v", st.Counters)
	}
	if len(st.Recent) != 1 {
		t.Fatalf("recent moves = %d, want 1", len(st.Recent))
	}
	rec := st.Recent[0]
	if rec.Outcome != rpc.MoveDone || rec.FinishedNs == 0 {
		t.Errorf("finished record = %+v, want outcome moved with a finish time", rec)
	}
	if rec.AfterTiers[core.TierMemory] != 1 || rec.AfterTiers[core.TierHDD] != 0 {
		t.Errorf("after tiers = %v, want MEMORY:1", rec.AfterTiers)
	}

	page := m.Journal().Since(0, evBlockMoved, 0)
	if len(page.Entries) != 1 {
		t.Fatalf("block_moved events = %d, want 1", len(page.Entries))
	}
	e := page.Entries[0]
	if e.Attrs["kind"] != rpc.MovePromote || e.Attrs["path"] != "/hot" ||
		e.Attrs["before"] != "HDD:1" || e.Attrs["after"] != "MEMORY:1" {
		t.Errorf("block_moved attrs = %+v", e.Attrs)
	}
	if e.TraceID == "" {
		t.Error("block_moved event not linked to the move's trace")
	}

	// explain now answers "why is this block in memory" with the move.
	m.placeMu.Lock()
	be := m.placements[blk.ID]
	m.placeMu.Unlock()
	if be.Origin != rpc.MovePromote || be.Heat < 90 {
		t.Errorf("explain record = origin %q heat %.2f, want promote ~100", be.Origin, be.Heat)
	}
}

func TestMoverDemotesColdBlock(t *testing.T) {
	m := moverTestMaster(t)
	blk := moverTestBlock(t, m, "/cold", core.NewReplicationVector(1, 0, 0, 0, 0), "w2", "w2:mem0")
	// Touched once, twenty half-lives ago: decayed heat ~1e-6 ops while
	// a memory replica still holds the bytes.
	m.heat.blocks.Add(blk.ID, heat.Read, 1, 10,
		time.Now().Add(-20*heat.DefaultHalfLife).UnixNano())

	m.moverPass()

	st := m.moverStatus()
	if len(st.InFlight) != 1 {
		t.Fatalf("in flight = %d, want 1 demotion", len(st.InFlight))
	}
	mov := st.InFlight[0]
	if mov.Kind != rpc.MoveDemote || mov.FromStorage != "w2:mem0" || mov.ToTier != core.TierHDD {
		t.Fatalf("move = %+v, want demote w2:mem0 -> HDD", mov)
	}
	received(t, m, mov.ToWorker, mov.ToStorage, blk)

	m.moverPass()

	reps := m.blocks.Replicas(blk.ID)
	if len(reps) != 1 || reps[0].Storage != mov.ToStorage {
		t.Fatalf("replicas after demotion = %+v, want only %s", reps, mov.ToStorage)
	}
	info, _ := m.blocks.Info(blk.ID)
	if info.Expected.Tier(core.TierMemory) != 0 || info.Expected.Tier(core.TierHDD) != 1 {
		t.Fatalf("expected vector not shifted: %v", info.Expected)
	}
	st = m.moverStatus()
	if st.Counters.Demoted != 1 {
		t.Errorf("counters = %+v, want one demotion", st.Counters)
	}
	page := m.Journal().Since(0, evBlockMoved, 0)
	if len(page.Entries) != 1 || page.Entries[0].Attrs["kind"] != rpc.MoveDemote ||
		page.Entries[0].Attrs["before"] != "MEMORY:1" || page.Entries[0].Attrs["after"] != "HDD:1" {
		t.Errorf("block_moved events = %+v", page.Entries)
	}
}

func TestMoverConcurrencyCap(t *testing.T) {
	m := moverTestMaster(t, func(cfg *Config) { cfg.MoverMaxMoves = 1 })
	b1 := moverTestBlock(t, m, "/h1", core.NewReplicationVector(0, 0, 1, 0, 0), "w1", "w1:hdd0")
	b2 := moverTestBlock(t, m, "/h2", core.NewReplicationVector(0, 0, 1, 0, 0), "w1", "w1:hdd0")
	heatUp(t, m, "w1", b1.ID, b2.ID)

	m.moverPass()

	st := m.moverStatus()
	if len(st.InFlight) != 1 || st.Counters.Scheduled != 1 {
		t.Fatalf("in flight = %d / scheduled = %d, want 1 / 1 under MoverMaxMoves=1",
			len(st.InFlight), st.Counters.Scheduled)
	}
	if st.Counters.SkippedConcurrency == 0 {
		t.Error("second hot block not counted as skipped for concurrency")
	}
}

func TestMoverBandwidthBudget(t *testing.T) {
	m := moverTestMaster(t, func(cfg *Config) { cfg.MoverBytesPerSec = 1 })
	b1 := moverTestBlock(t, m, "/h1", core.NewReplicationVector(0, 0, 1, 0, 0), "w1", "w1:hdd0")
	b2 := moverTestBlock(t, m, "/h2", core.NewReplicationVector(0, 0, 1, 0, 0), "w1", "w1:hdd0")
	heatUp(t, m, "w1", b1.ID, b2.ID)

	m.moverPass()

	// Deficit-counter budget: the first 1 MiB block moves on a 1 B/s
	// budget (driving it negative), the second waits.
	st := m.moverStatus()
	if len(st.InFlight) != 1 || st.Counters.Scheduled != 1 {
		t.Fatalf("in flight = %d / scheduled = %d, want 1 / 1 on an exhausted budget",
			len(st.InFlight), st.Counters.Scheduled)
	}
	if st.Counters.SkippedBudget == 0 {
		t.Error("second hot block not counted as skipped for budget")
	}
}

func TestMoverCooldownPreventsRepeatMoves(t *testing.T) {
	m := moverTestMaster(t)
	blk := moverTestBlock(t, m, "/hot", core.NewReplicationVector(0, 0, 1, 0, 0), "w1", "w1:hdd0")
	heatUp(t, m, "w1", blk.ID)
	m.mover.mu.Lock()
	m.mover.cooldown[blk.ID] = time.Now().Add(time.Hour)
	m.mover.mu.Unlock()

	m.moverPass()

	st := m.moverStatus()
	if len(st.InFlight) != 0 || st.Counters.Scheduled != 0 {
		t.Fatalf("cooled-down block still moved: %+v", st.Counters)
	}
	if st.Counters.SkippedCooldown == 0 {
		t.Error("cooldown skip not counted")
	}
}

func TestMoverExpiresUnconfirmedMoves(t *testing.T) {
	m := moverTestMaster(t)
	blk := moverTestBlock(t, m, "/hot", core.NewReplicationVector(0, 0, 1, 0, 0), "w1", "w1:hdd0")
	heatUp(t, m, "w1", blk.ID)

	m.moverPass()
	if len(m.moverStatus().InFlight) != 1 {
		t.Fatal("move not scheduled")
	}
	// The copy never confirms; past moverExpiryTicks monitor ticks the
	// move is abandoned and the block cools down instead of wedging a
	// concurrency slot forever.
	for i := 0; i < moverExpiryTicks; i++ {
		if len(m.moverStatus().InFlight) != 1 {
			t.Fatalf("move gone after %d ticks, want it in flight until %d", i, moverExpiryTicks)
		}
		m.blocks.Tick()
		m.moverPass()
	}

	st := m.moverStatus()
	if len(st.InFlight) != 0 || st.Counters.Expired != 1 {
		t.Fatalf("status after deadline = %d in flight, counters %+v", len(st.InFlight), st.Counters)
	}
	if len(st.Recent) != 1 || st.Recent[0].Outcome != rpc.MoveExpired {
		t.Fatalf("recent = %+v, want one expired move", st.Recent)
	}
	if got := len(m.blocks.Replicas(blk.ID)); got != 1 {
		t.Errorf("replicas after expired move = %d, want the untouched source", got)
	}
	if n := len(m.Journal().Since(0, evBlockMoveExpired, 0).Entries); n != 1 {
		t.Errorf("block_move_expired events = %d, want 1", n)
	}
}

// The confirmation deadline is moverExpiryTicks mover passes however many
// monitor ticks a pass spans, and a copy confirmed after it retired
// nothing: the move is expired, not done, and the surplus replica goes
// the ordinary excess-removal way.
func TestMoverLateConfirmIsExpiredNotDone(t *testing.T) {
	m := moverTestMaster(t, func(cfg *Config) { cfg.MoverInterval = 4 * cfg.MonitorInterval })
	blk := moverTestBlock(t, m, "/hot", core.NewReplicationVector(0, 0, 1, 0, 0), "w1", "w1:hdd0")
	heatUp(t, m, "w1", blk.ID)
	m.moverPass()

	for i := 1; i < 4*moverExpiryTicks; i++ {
		m.blocks.Tick()
	}
	if m.blocks.PendingAdds("w2:mem0") != 1 {
		t.Fatalf("move cancelled before %d monitor ticks", 4*moverExpiryTicks)
	}
	m.blocks.Tick()
	if m.blocks.PendingAdds("w2:mem0") != 0 {
		t.Fatalf("move still pending after %d monitor ticks", 4*moverExpiryTicks)
	}
	received(t, m, "w2", "w2:mem0", blk)
	m.moverPass()

	st := m.moverStatus()
	if st.Counters.Expired != 1 || st.Counters.Promoted != 0 || st.Counters.MovedBytes != 0 {
		t.Errorf("counters = %+v, want one expired move and none done", st.Counters)
	}
	if n := len(m.Journal().Since(0, evBlockMoved, 0).Entries); n != 0 {
		t.Errorf("block_moved events = %d, want 0: the source was never retired", n)
	}
	if got := len(m.blocks.Replicas(blk.ID)); got != 2 {
		t.Fatalf("live replicas after the late confirm = %d, want source and copy", got)
	}
	m.repairBlocks()
	if got := len(m.blocks.Replicas(blk.ID)); got != 1 {
		t.Errorf("live replicas after excess removal = %d, want 1", got)
	}
	if bad := m.CheckReplicas(); len(bad) != 0 {
		t.Errorf("life-cycle check: %v", bad)
	}
}

// Satellite regression: a failed write pipeline must release the
// scheduled-load counters its AddBlock took out; before the fix they
// leaked forever and skewed placement load scoring.
func TestAbandonedWriteDrainsScheduledLoad(t *testing.T) {
	m := testMaster(t, func(cfg *Config) { cfg.MonitorInterval = time.Hour })
	registerFakeWorker(t, m, "w1", "/r1",
		mediaStat("w1:hdd0", core.TierHDD, 4<<30, 120, 170))
	svc := &Service{m: m}

	scheduledOn := m.blocks.PendingAdds
	addBlock := func(path string) core.Block {
		if err := svc.Create(&rpc.CreateArgs{
			Path: path, RepVector: core.ReplicationVectorFromFactor(1),
		}, &rpc.CreateReply{}); err != nil {
			t.Fatal(err)
		}
		var reply rpc.AddBlockReply
		if err := svc.AddBlock(&rpc.AddBlockArgs{
			ReqHeader: rpc.ReqHeader{ReqID: rpc.NewRequestID()}, Path: path,
		}, &reply); err != nil {
			t.Fatal(err)
		}
		return reply.Located.Block
	}

	// Dead pipeline, single block abandoned.
	blk := addBlock("/f")
	if got := scheduledOn("w1:hdd0"); got != 1 {
		t.Fatalf("scheduled after AddBlock = %d, want 1", got)
	}
	if err := svc.AbandonBlock(&rpc.AbandonBlockArgs{Path: "/f", Block: blk},
		&rpc.AbandonBlockReply{}); err != nil {
		t.Fatal(err)
	}
	if got := scheduledOn("w1:hdd0"); got != 0 {
		t.Fatalf("scheduled after AbandonBlock = %d, want 0", got)
	}

	// Dead writer, whole file abandoned.
	addBlock("/g")
	if err := svc.Abandon(&rpc.AbandonArgs{Path: "/g"}, &rpc.AbandonReply{}); err != nil {
		t.Fatal(err)
	}
	if got := scheduledOn("w1:hdd0"); got != 0 {
		t.Fatalf("scheduled after Abandon = %d, want 0", got)
	}
	if bad := m.CheckReplicas(); len(bad) != 0 {
		t.Fatalf("life-cycle check after abandoned writes: %v", bad)
	}

	// The happy path still balances — the commit confirms the pipeline —
	// and a confirmation for an unrelated block (replication, duplicate
	// listing) must not release another pipeline's count.
	done := addBlock("/h")
	done.NumBytes = 1 << 20
	if err := svc.CommitBlock(&rpc.CommitBlockArgs{Path: "/h", Block: done},
		&rpc.CommitBlockReply{}); err != nil {
		t.Fatal(err)
	}
	if got := scheduledOn("w1:hdd0"); got != 0 {
		t.Fatalf("scheduled after CommitBlock = %d, want 0", got)
	}
	addBlock("/i")                        // outstanding pipeline holds one slot
	received(t, m, "w1", "w1:hdd0", done) // duplicate confirm for /h
	if got := scheduledOn("w1:hdd0"); got != 1 {
		t.Fatalf("scheduled after unrelated confirm = %d, want the /i pipeline's 1", got)
	}
}

// Satellite regression: losing one of several workers co-hosted on a
// node must not evict the node from the topology — the survivors
// still define its fault domain.
func TestCoHostedWorkerLossKeepsNodeMapping(t *testing.T) {
	m := testMaster(t, func(cfg *Config) { cfg.MonitorInterval = time.Hour })
	svc := &Service{m: m}
	reg := func(id, node string) {
		t.Helper()
		if err := svc.Register(&rpc.RegisterArgs{
			ID: core.WorkerID(id), Node: node, Rack: "/r1",
			DataAddr: "127.0.0.1:1", NetMBps: 1250,
			Media: []rpc.MediaStat{mediaStat(id+":hdd0", core.TierHDD, 4<<30, 120, 170)},
		}, &rpc.RegisterReply{}); err != nil {
			t.Fatalf("Register(%s): %v", id, err)
		}
	}
	reg("wa", "shared")
	reg("wb", "shared")
	if got := m.topo.RackOf("shared"); got != "/r1" {
		t.Fatalf("node not mapped after registration: rack = %q", got)
	}

	// Expire wa only; wb still lives on the node.
	m.mu.Lock()
	m.workers["wa"].lastSeen = time.Now().Add(-time.Hour)
	m.mu.Unlock()
	m.expireWorkers()
	if m.NumWorkers() != 1 {
		t.Fatalf("workers after expiry = %d, want 1", m.NumWorkers())
	}
	if got := m.topo.RackOf("shared"); got != "/r1" {
		t.Fatalf("expiring a co-hosted worker dropped the node mapping: rack = %q", got)
	}

	// Decommissioning with a live co-hosted peer keeps the node too.
	reg("wc", "shared2")
	reg("wd", "shared2")
	if err := m.decommission("wc", "test"); err != nil {
		t.Fatal(err)
	}
	if got := m.topo.RackOf("shared2"); got != "/r1" {
		t.Fatalf("decommissioning a co-hosted worker dropped the node mapping: rack = %q", got)
	}

	// Only the last worker leaving removes the node.
	if err := m.decommission("wb", "test"); err != nil {
		t.Fatal(err)
	}
	if got := m.topo.RackOf("shared"); got != topology.DefaultRack {
		t.Fatalf("node mapping survived its last worker: rack = %q", got)
	}
}

// Satellite regression: a repair that could not be scheduled (no
// feasible placement yet) must not arm the backoff marker — the next
// tick has to retry immediately once capacity appears.
func TestRepairRetriesAfterInfeasiblePlacement(t *testing.T) {
	m := testMaster(t, func(cfg *Config) { cfg.MonitorInterval = time.Hour })
	registerFakeWorker(t, m, "w1", "/r1",
		mediaStat("w1:hdd0", core.TierHDD, 4<<30, 120, 170))
	svc := &Service{m: m}
	blk := moverTestBlock(t, m, "/f", core.ReplicationVectorFromFactor(1), "w1", "w1:hdd0")
	if err := svc.SetReplication(&rpc.SetReplicationArgs{
		Path: "/f", RepVector: core.ReplicationVectorFromFactor(2),
	}, &rpc.SetReplicationReply{}); err != nil {
		t.Fatal(err)
	}

	// One worker, one occupied medium: the second replica has nowhere
	// to go, so no repair command is issued and nothing is recorded as
	// outstanding.
	m.repairBlocks()
	if info, _ := m.blocks.Info(blk.ID); len(info.Pending) != 0 {
		t.Fatalf("work recorded as outstanding with nothing scheduled: %+v", info.Pending)
	}

	// Capacity appears; the very next tick must schedule the copy.
	registerFakeWorker(t, m, "w2", "/r2",
		mediaStat("w2:hdd0", core.TierHDD, 4<<30, 120, 170))
	time.Sleep(snapshotTTL + 10*time.Millisecond) // bust the cached policy snapshot
	m.repairBlocks()

	var scheduled bool
	for _, c := range pendingCommands(m, "w2") {
		if c.Kind == rpc.CmdReplicate && c.Block.ID == blk.ID && c.Target == "w2:hdd0" {
			scheduled = true
		}
	}
	if !scheduled {
		t.Fatal("re-replication not scheduled on the next tick after capacity appeared")
	}
	if info, _ := m.blocks.Info(blk.ID); len(info.Pending) != 1 || info.Pending[0].Storage != "w2:hdd0" {
		t.Errorf("outstanding work = %+v, want the one copy to w2:hdd0", info.Pending)
	}
	// The outstanding copy is supply: later ticks do not issue it again
	// until it expires unconfirmed.
	for i := 1; i < repairExpiryTicks; i++ {
		m.blocks.Tick()
		m.repairBlocks()
	}
	if n := len(pendingCommands(m, "w2")); n != 1 {
		t.Errorf("commands for w2 before the expiry = %d, want the original 1", n)
	}
	m.blocks.Tick()
	m.repairBlocks()
	if n := len(pendingCommands(m, "w2")); n != 2 {
		t.Errorf("commands for w2 after the expiry = %d, want a re-issue", n)
	}
}
