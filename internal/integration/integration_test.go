package integration

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/master"
	"repro/internal/rpc"
)

func startTestCluster(t *testing.T, mutate ...func(*ClusterConfig)) *Cluster {
	t.Helper()
	cfg := DefaultClusterConfig(t.TempDir())
	// Flag every op slow, so the master keeps every trace and journals
	// every slow_op event the tests look for.
	cfg.SlowOpThreshold = time.Nanosecond
	for _, fn := range mutate {
		fn(&cfg)
	}
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(c.Close)
	return c
}

func randomBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	rng.Read(data)
	return data
}

// waitFor polls cond until it holds or the timeout expires.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := startTestCluster(t)
	fs, err := c.Client("")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	// Multi-block file: 3 blocks of 4 MB plus a 1 MB tail.
	data := randomBytes(13<<20, 7)
	if err := fs.WriteFile("/big.bin", data, core.ReplicationVectorFromFactor(2)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := fs.ReadFile("/big.bin")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back different content")
	}

	info, err := fs.Stat("/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if info.Length != int64(len(data)) {
		t.Errorf("Length = %d, want %d", info.Length, len(data))
	}
	blocks, err := fs.GetFileBlockLocations("/big.bin", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 4 {
		t.Errorf("blocks = %d, want 4", len(blocks))
	}
	for _, b := range blocks {
		if len(b.Locations) != 2 {
			t.Errorf("block %s has %d locations, want 2", b.Block.ID, len(b.Locations))
		}
	}
}

// The client's commit confirms its pipeline: the moment Close returns,
// every pipeline target is a location of its block and serves its
// bytes, with no worker message in between.
func TestEveryTargetServesRightAfterClose(t *testing.T) {
	c := startTestCluster(t)
	fs, err := c.Client("")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	data := randomBytes(6<<20, 11)
	if err := fs.WriteFile("/every", data, core.ReplicationVectorFromFactor(3)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	blocks, err := fs.GetFileBlockLocations("/every", 0, -1)
	if err != nil || len(blocks) != 2 {
		t.Fatalf("blocks = %d, %v; want 2", len(blocks), err)
	}
	for _, b := range blocks {
		if len(b.Locations) != 3 {
			t.Errorf("block %s has %d locations right after Close, want 3", b.Block.ID, len(b.Locations))
		}
		want := data[b.Offset : b.Offset+b.Block.NumBytes]
		for _, loc := range b.Locations {
			rc, _, err := rpc.OpenBlockReader(loc.Address, b.Block, loc.Storage, 0, -1)
			if err != nil {
				t.Fatalf("block %s on %s: %v", b.Block.ID, loc.Storage, err)
			}
			got, err := io.ReadAll(rc)
			rc.Close()
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("block %s on %s: read %d bytes (err %v), want its %d", b.Block.ID, loc.Storage, len(got), err, len(want))
			}
		}
	}
	if bad := c.Master.CheckReplicas(); len(bad) != 0 {
		t.Errorf("life-cycle check: %v", bad)
	}
}

func TestEmptyFile(t *testing.T) {
	c := startTestCluster(t)
	fs, _ := c.Client("")
	defer fs.Close()
	if err := fs.WriteFile("/empty", nil, core.ReplicationVectorFromFactor(1)); err != nil {
		t.Fatalf("WriteFile(empty): %v", err)
	}
	got, err := fs.ReadFile("/empty")
	if err != nil {
		t.Fatalf("ReadFile(empty): %v", err)
	}
	if len(got) != 0 {
		t.Errorf("empty file read %d bytes", len(got))
	}
}

func TestTierPinnedPlacement(t *testing.T) {
	c := startTestCluster(t)
	fs, _ := c.Client("")
	defer fs.Close()

	rv := core.NewReplicationVector(1, 1, 1, 0, 0)
	data := randomBytes(1<<20, 3)
	if err := fs.WriteFile("/tiered", data, rv); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	blocks, err := fs.GetFileBlockLocations("/tiered", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	tiers := map[core.StorageTier]int{}
	for _, loc := range blocks[0].Locations {
		tiers[loc.Tier]++
	}
	if tiers[core.TierMemory] != 1 || tiers[core.TierSSD] != 1 || tiers[core.TierHDD] != 1 {
		t.Errorf("replica tiers = %v, want one each of memory/ssd/hdd", tiers)
	}
	// Reading must pick the memory replica first (idle cluster, equal
	// network shares, faster media wins the tie-break).
	if blocks[0].Locations[0].Tier != core.TierMemory {
		t.Errorf("first location tier = %v, want MEMORY", blocks[0].Locations[0].Tier)
	}
	got, err := fs.ReadFile("/tiered")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadFile: %v", err)
	}
}

func TestNamespaceOpsOverRPC(t *testing.T) {
	c := startTestCluster(t)
	fs, _ := c.Client("")
	defer fs.Close()

	if err := fs.Mkdir("/a/b", true); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/a/b/f", []byte("hello"), core.ReplicationVectorFromFactor(1)); err != nil {
		t.Fatal(err)
	}
	entries, err := fs.List("/a/b")
	if err != nil || len(entries) != 1 || entries[0].Path != "/a/b/f" {
		t.Fatalf("List = %v, %v", entries, err)
	}
	if err := fs.Rename("/a/b/f", "/a/g"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/a/b/f"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("stat after rename err = %v, want ErrNotFound", err)
	}
	data, err := fs.ReadFile("/a/g")
	if err != nil || string(data) != "hello" {
		t.Fatalf("read renamed: %q, %v", data, err)
	}
	if err := fs.Delete("/a", false); !errors.Is(err, core.ErrNotEmpty) {
		t.Errorf("non-recursive delete err = %v, want ErrNotEmpty", err)
	}
	if err := fs.Delete("/a", true); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/a"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("stat deleted err = %v", err)
	}
}

// TestListRebuildsFullPaths lists over the master port, whose reply
// names the directory once and each entry by name: the client hands back
// full paths in name order, at the root, below it, and for a file path.
func TestListRebuildsFullPaths(t *testing.T) {
	c := startTestCluster(t)
	fs, _ := c.Client("")
	defer fs.Close()
	if err := fs.Mkdir("/d", false); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/d/x", "/a"} {
		if err := fs.WriteFile(p, nil, core.ReplicationVectorFromFactor(1)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		path string
		want []string
		dirs []bool
	}{
		{"/", []string{"/a", "/d"}, []bool{false, true}},
		{"/d", []string{"/d/x"}, []bool{false}},
		{"/d/x", []string{"/d/x"}, []bool{false}},
	} {
		entries, err := fs.List(tc.path)
		if err != nil {
			t.Fatalf("List(%s): %v", tc.path, err)
		}
		var got []string
		var dirs []bool
		for _, e := range entries {
			got, dirs = append(got, e.Path), append(dirs, e.IsDir)
		}
		if !slices.Equal(got, tc.want) || !slices.Equal(dirs, tc.dirs) {
			t.Errorf("List(%s) = %v (dirs %v), want %v (dirs %v)", tc.path, got, dirs, tc.want, tc.dirs)
		}
	}
	if entries, err := fs.List("/none"); !errors.Is(err, core.ErrNotFound) || entries != nil {
		t.Errorf("List(/none) = %v, %v; want nothing and ErrNotFound", entries, err)
	}
}

func TestStorageTierReports(t *testing.T) {
	c := startTestCluster(t)
	fs, _ := c.Client("")
	defer fs.Close()

	reports, err := fs.GetStorageTierReports()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d tiers, want 3", len(reports))
	}
	byTier := map[core.StorageTier]core.StorageTierReport{}
	for _, r := range reports {
		byTier[r.Tier] = r
	}
	cfg := DefaultClusterConfig("")
	if got := byTier[core.TierMemory].Capacity; got != int64(cfg.NumWorkers)*cfg.MemCapacity {
		t.Errorf("memory capacity = %d", got)
	}
	if got := byTier[core.TierHDD].NumMedia; got != cfg.NumWorkers*cfg.NumHDDs {
		t.Errorf("hdd media = %d, want %d", got, cfg.NumWorkers*cfg.NumHDDs)
	}
	if byTier[core.TierSSD].NumWorkers != cfg.NumWorkers {
		t.Errorf("ssd workers = %d", byTier[core.TierSSD].NumWorkers)
	}
}

func TestSetReplicationCopyToFasterTier(t *testing.T) {
	c := startTestCluster(t)
	fs, _ := c.Client("")
	defer fs.Close()

	data := randomBytes(1<<20, 11)
	if err := fs.WriteFile("/f", data, core.NewReplicationVector(0, 0, 2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	// Copy one replica into memory: <0,0,2> -> <1,0,2>.
	if err := fs.SetReplication("/f", core.NewReplicationVector(1, 0, 2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "memory replica to appear", func() bool {
		blocks, err := fs.GetFileBlockLocations("/f", 0, -1)
		if err != nil || len(blocks) == 0 {
			return false
		}
		tiers := map[core.StorageTier]int{}
		for _, loc := range blocks[0].Locations {
			tiers[loc.Tier]++
		}
		return tiers[core.TierMemory] == 1 && tiers[core.TierHDD] == 2
	})
	got, err := fs.ReadFile("/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after replication change: %v", err)
	}
}

func TestSetReplicationMoveBetweenTiers(t *testing.T) {
	c := startTestCluster(t)
	fs, _ := c.Client("")
	defer fs.Close()

	data := randomBytes(1<<20, 13)
	if err := fs.WriteFile("/mv", data, core.NewReplicationVector(1, 0, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	// Move the memory replica to SSD: <1,0,1> -> <0,1,1>.
	if err := fs.SetReplication("/mv", core.NewReplicationVector(0, 1, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "replica to move to SSD", func() bool {
		blocks, err := fs.GetFileBlockLocations("/mv", 0, -1)
		if err != nil || len(blocks) == 0 {
			return false
		}
		tiers := map[core.StorageTier]int{}
		for _, loc := range blocks[0].Locations {
			tiers[loc.Tier]++
		}
		return tiers[core.TierMemory] == 0 && tiers[core.TierSSD] == 1 && tiers[core.TierHDD] == 1
	})
	got, err := fs.ReadFile("/mv")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after move: %v", err)
	}
}

func TestWorkerFailureTriggersReReplication(t *testing.T) {
	c := startTestCluster(t)
	fs, _ := c.Client("")
	defer fs.Close()

	data := randomBytes(2<<20, 17)
	if err := fs.WriteFile("/resilient", data, core.NewReplicationVector(0, 0, 2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	blocks, err := fs.GetFileBlockLocations("/resilient", 0, -1)
	if err != nil || len(blocks) == 0 {
		t.Fatal(err)
	}
	victim := blocks[0].Locations[0].Worker
	idx := -1
	for i, w := range c.Workers {
		if w.ID() == victim {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatalf("victim worker %s not found", victim)
	}
	if err := c.KillWorker(idx); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 15*time.Second, "re-replication onto surviving workers", func() bool {
		blocks, err := fs.GetFileBlockLocations("/resilient", 0, -1)
		if err != nil {
			return false
		}
		for _, b := range blocks {
			live := 0
			for _, loc := range b.Locations {
				if loc.Worker != victim {
					live++
				}
			}
			if live < 2 {
				return false
			}
		}
		return true
	})
	got, err := fs.ReadFile("/resilient")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after failure: %v", err)
	}
}

// TestRepairPlacementIsExplained kills a replica's worker, waits for
// the re-replication, and checks /debug/explain then says why the new
// replica went where it did: a "repair" record whose winner is the new
// replica's medium.
func TestRepairPlacementIsExplained(t *testing.T) {
	c := startTestCluster(t, func(cfg *ClusterConfig) {
		cfg.WorkerTimeout = 300 * time.Millisecond
	})
	fs, _ := c.Client("")
	defer fs.Close()

	if err := fs.WriteFile("/repaired", randomBytes(1<<20, 23), core.NewReplicationVector(0, 0, 2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	blocks, err := fs.GetFileBlockLocations("/repaired", 0, -1)
	if err != nil || len(blocks) != 1 || len(blocks[0].Locations) != 2 {
		t.Fatalf("locations %+v (%v), want one block on two replicas", blocks, err)
	}
	before := map[core.StorageID]bool{}
	for _, loc := range blocks[0].Locations {
		before[loc.Storage] = true
	}
	victim := blocks[0].Locations[0].Worker
	for i, w := range c.Workers {
		if w.ID() == victim {
			if err := c.KillWorker(i); err != nil {
				t.Fatal(err)
			}
		}
	}

	var added core.StorageID
	waitFor(t, 15*time.Second, "re-replication onto a new medium", func() bool {
		blocks, err := fs.GetFileBlockLocations("/repaired", 0, -1)
		if err != nil || len(blocks) != 1 {
			return false
		}
		for _, loc := range blocks[0].Locations {
			if !before[loc.Storage] {
				added = loc.Storage
				return true
			}
		}
		return false
	})
	doc, err := fs.Explain("/repaired")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Blocks) != 1 {
		t.Fatalf("explain holds %d blocks, want 1", len(doc.Blocks))
	}
	be := doc.Blocks[0]
	if be.Origin != rpc.OriginRepair || len(be.Replicas) != 1 || len(be.Replicas[0].Candidates) == 0 {
		t.Fatalf("explanation = origin %q with %d replica decisions, want one repair decision",
			be.Origin, len(be.Replicas))
	}
	if win := be.Replicas[0].Candidates[0]; win.Storage != added || !win.Chosen {
		t.Errorf("repair winner %s (chosen %v), new replica on %s", win.Storage, win.Chosen, added)
	}
}

func TestReaderFailoverAcrossReplicas(t *testing.T) {
	c := startTestCluster(t)
	fs, _ := c.Client("")
	defer fs.Close()

	data := randomBytes(1<<20, 19)
	if err := fs.WriteFile("/fo", data, core.NewReplicationVector(0, 0, 3, 0, 0)); err != nil {
		t.Fatal(err)
	}
	blocks, _ := fs.GetFileBlockLocations("/fo", 0, -1)
	// Open the reader first (captures locations), then kill the first
	// worker in its list: Read must fail over.
	r, err := fs.Open("/fo")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	victim := blocks[0].Locations[0].Worker
	for i, w := range c.Workers {
		if w.ID() == victim {
			c.KillWorker(i)
			break
		}
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("read with dead first replica: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("failover read returned wrong content")
	}
}

func TestQuotaOverRPC(t *testing.T) {
	c := startTestCluster(t)
	fs, _ := c.Client("")
	defer fs.Close()

	if err := fs.Mkdir("/q", true); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetQuota("/q", core.TierMemory, 1); err != nil {
		t.Fatal(err)
	}
	// One memory replica of a 4 MB block exceeds the 1-byte quota.
	err := fs.WriteFile("/q/f", randomBytes(1<<20, 23), core.NewReplicationVector(1, 0, 1, 0, 0))
	if !errors.Is(err, core.ErrQuotaExceeded) {
		t.Errorf("quota write err = %v, want ErrQuotaExceeded", err)
	}
	// HDD-only file is unaffected by the memory quota.
	if err := fs.WriteFile("/q/ok", randomBytes(1<<20, 29), core.NewReplicationVector(0, 0, 1, 0, 0)); err != nil {
		t.Errorf("hdd-only write err = %v", err)
	}
}

func TestClientCollocationOverRPC(t *testing.T) {
	c := startTestCluster(t)
	fs, err := c.Client("node2")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := fs.WriteFile("/local", randomBytes(1<<20, 31), core.NewReplicationVector(0, 0, 2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	blocks, _ := fs.GetFileBlockLocations("/local", 0, -1)
	if blocks[0].Locations[0].Worker != "node2" && blocks[0].Locations[1].Worker != "node2" {
		t.Errorf("no replica on the writer's node: %+v", blocks[0].Locations)
	}
}

func TestSeekAndPartialRead(t *testing.T) {
	c := startTestCluster(t)
	fs, _ := c.Client("")
	defer fs.Close()

	data := randomBytes(9<<20, 37) // spans 3 blocks
	if err := fs.WriteFile("/seek", data, core.ReplicationVectorFromFactor(1)); err != nil {
		t.Fatal(err)
	}
	r, err := fs.Open("/seek")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Seek into the middle of the second block.
	off := int64(5<<20 + 123)
	if _, err := r.Seek(off, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[off:off+1<<20]) {
		t.Error("seeked read returned wrong range")
	}
	// Seek from end.
	if _, err := r.Seek(-100, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	tail, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(tail, data[len(data)-100:]) {
		t.Errorf("tail read wrong: %v", err)
	}
}

func TestOverwriteInvalidatesOldBlocks(t *testing.T) {
	c := startTestCluster(t)
	fs, _ := c.Client("")
	defer fs.Close()

	if err := fs.WriteFile("/ow", randomBytes(1<<20, 41), core.ReplicationVectorFromFactor(1)); err != nil {
		t.Fatal(err)
	}
	newData := randomBytes(2<<20, 43)
	if err := fs.WriteFile("/ow", newData, core.ReplicationVectorFromFactor(1)); err != nil {
		t.Fatal(err)
	}
	got, err := fs.ReadFile("/ow")
	if err != nil || !bytes.Equal(got, newData) {
		t.Fatalf("read after overwrite: %v", err)
	}
}

func TestLeaseRecoveryAbandonsDeadWriters(t *testing.T) {
	m, err := master.New(master.Config{
		ListenAddr:      "127.0.0.1:0",
		BlockSize:       4 << 20,
		MonitorInterval: 50 * time.Millisecond,
		LeaseTimeout:    300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	fs, err := client.Dial(m.Addr(), client.WithOwner("it"))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	// Open a file and walk away without completing it (the writer
	// "crashed"). No workers are needed: the file never gets blocks.
	if _, err := fs.Create("/orphan", client.CreateOptions{
		RepVector: core.ReplicationVectorFromFactor(1),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/orphan"); err != nil {
		t.Fatalf("stat right after create: %v", err)
	}
	waitFor(t, 10*time.Second, "lease recovery to abandon the file", func() bool {
		_, err := fs.Stat("/orphan")
		return errors.Is(err, core.ErrNotFound)
	})
}

func TestContentSummaryAndFsck(t *testing.T) {
	c := startTestCluster(t)
	fs, _ := c.Client("")
	defer fs.Close()

	fs.Mkdir("/proj/sub", true)
	if err := fs.WriteFile("/proj/a", randomBytes(1<<20, 83), core.NewReplicationVector(1, 0, 2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile("/proj/sub/b", randomBytes(2<<20, 89), core.ReplicationVectorFromFactor(2)); err != nil {
		t.Fatal(err)
	}

	sum, err := fs.GetContentSummary("/proj")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Files != 2 || sum.Directories != 2 {
		t.Errorf("summary files=%d dirs=%d, want 2/2", sum.Files, sum.Directories)
	}
	if sum.Bytes != 3<<20 {
		t.Errorf("summary bytes=%d, want 3MB", sum.Bytes)
	}
	// /proj/a pins 1 memory + 2 HDD replicas of 1MB.
	if sum.TierBytes[core.TierMemory] != 1<<20 {
		t.Errorf("memory tier bytes = %d, want 1MB", sum.TierBytes[core.TierMemory])
	}
	if sum.TierBytes[core.TierHDD] != 2<<20 {
		t.Errorf("hdd tier bytes = %d, want 2MB", sum.TierBytes[core.TierHDD])
	}
	// Total slot: 3 replicas of a (3MB) + 2 of b (4MB).
	if got := sum.TierBytes[4]; got != 7<<20 {
		t.Errorf("total replica bytes = %d, want 7MB", got)
	}

	// fsck: everything healthy right after writing.
	waitFor(t, 5*time.Second, "fsck to report all healthy", func() bool {
		files, err := fs.Fsck("/proj")
		if err != nil || len(files) != 2 {
			return false
		}
		for _, f := range files {
			if f.HealthyBlocks != f.Blocks || f.MissingBlocks > 0 || f.UnderConstruction {
				return false
			}
		}
		return true
	})

	// Kill a worker hosting /proj/sub/b: fsck must show degradation,
	// then recovery.
	blocks, _ := fs.GetFileBlockLocations("/proj/sub/b", 0, -1)
	victim := blocks[0].Locations[0].Worker
	for i, w := range c.Workers {
		if w.ID() == victim {
			c.KillWorker(i)
			break
		}
	}
	waitFor(t, 20*time.Second, "fsck to report full health after repair", func() bool {
		files, err := fs.Fsck("/proj")
		if err != nil {
			return false
		}
		for _, f := range files {
			if f.HealthyBlocks != f.Blocks {
				return false
			}
		}
		return true
	})
}

func TestWriterSurvivesWorkerDeathMidWrite(t *testing.T) {
	c := startTestCluster(t, func(cfg *ClusterConfig) {
		cfg.NumWorkers = 5
	})
	fs, _ := c.Client("")
	defer fs.Close()

	// Write block-by-block, killing a pipeline worker between blocks —
	// before the master's 2s worker timeout notices, so the next
	// AddBlock may well hand out the dead worker and force the client
	// through its block-retry path.
	w, err := fs.Create("/survivor", client.CreateOptions{
		RepVector: core.NewReplicationVector(0, 0, 2, 0, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	data := randomBytes(12<<20, 97) // 3 blocks of 4MB
	if _, err := w.Write(data[:5<<20]); err != nil {
		t.Fatalf("first write: %v", err)
	}

	// Kill a worker that hosts a replica of the in-flight file.
	blocks, _ := fs.GetFileBlockLocations("/survivor", 0, -1)
	if len(blocks) == 0 || len(blocks[0].Locations) == 0 {
		t.Fatal("no locations yet")
	}
	victim := blocks[0].Locations[0].Worker
	for i, wk := range c.Workers {
		if wk.ID() == victim {
			c.KillWorker(i)
			break
		}
	}

	if _, err := w.Write(data[5<<20:]); err != nil {
		t.Fatalf("write after worker death: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	got, err := fs.ReadFile("/survivor")
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("content mismatch after mid-write failure")
	}
}
