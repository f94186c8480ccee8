package integration

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/policy"
)

// replicaPath is the file of a disk replica: storage IDs look like
// "node1:hdd0", and files live under dir/node1/hdd0/blk_<id>_<gen>.
func replicaPath(dir string, loc core.BlockLocation, b core.Block) string {
	node, media, _ := strings.Cut(string(loc.Storage), ":")
	return filepath.Join(dir, node, media, fmt.Sprintf("blk_%d_%d", uint64(b.ID), uint64(b.GenStamp)))
}

// TestRestartedWorkerProvesItsDisk kills a worker, leaves in its
// directories what a crash or an older build can (a temporary file, a
// replica with a torn trailer, a replica gone, a sidecar-era ".crc"),
// and restarts it on the same directories: the worker lists only the
// replicas it holds, counts only their bytes, leaves no debris, and the
// master repairs every file, its lost memory replicas included, with no
// client read.
func TestRestartedWorkerProvesItsDisk(t *testing.T) {
	dir := t.TempDir()
	c, err := StartCluster(DefaultClusterConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	fs, _ := c.Client("")
	defer fs.Close()

	vectors := []core.ReplicationVector{
		core.NewReplicationVector(1, 0, 2, 0, 0),
		core.NewReplicationVector(0, 0, 2, 0, 0),
	}
	type replica struct {
		loc core.BlockLocation
		b   core.Block
	}
	hdd := make(map[string][]replica) // node → its HDD replicas
	for i := 0; i < 6; i++ {
		path := fmt.Sprintf("/f%d", i)
		if err := fs.WriteFile(path, randomBytes(1<<20+i, int64(200+i)), vectors[i%2]); err != nil {
			t.Fatal(err)
		}
		blocks, err := fs.GetFileBlockLocations(path, 0, -1)
		if err != nil {
			t.Fatal(err)
		}
		for _, lb := range blocks {
			for _, loc := range lb.Locations {
				if loc.Tier == core.TierHDD {
					hdd[string(loc.Worker)] = append(hdd[string(loc.Worker)], replica{loc, lb.Block})
				}
			}
		}
	}
	// Twelve HDD replicas over four workers: the busiest holds two or
	// more.
	victim := 0
	for i := range c.Workers {
		if len(hdd[fmt.Sprintf("node%d", i+1)]) > len(hdd[fmt.Sprintf("node%d", victim+1)]) {
			victim = i
		}
	}
	node := fmt.Sprintf("node%d", victim+1)
	torn, gone := hdd[node][0], hdd[node][1]

	if err := c.KillWorker(victim); err != nil {
		t.Fatal(err)
	}
	tornPath := replicaPath(dir, torn.loc, torn.b)
	info, err := os.Stat(tornPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tornPath, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(replicaPath(dir, gone.loc, gone.b)); err != nil {
		t.Fatal(err)
	}
	for name, content := range map[string]string{
		filepath.Join(node, "hdd0", ".tmp-blk-1234"): "half a block",
		filepath.Join(node, "hdd1", "blk_999_1.crc"): "OFSSUMS1....",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	w, err := c.startWorker(victim)
	if err != nil {
		t.Fatal(err)
	}
	c.Workers[victim] = w
	media := w.Media()
	if media[torn.loc.Storage].Has(torn.b) || media[gone.loc.Storage].Has(gone.b) {
		t.Fatal("the restarted worker lists a torn or missing replica")
	}
	for _, pattern := range []string{".tmp-blk-*", "*.crc"} {
		if left, _ := filepath.Glob(filepath.Join(dir, node, "*", pattern)); len(left) > 0 {
			t.Errorf("the restarted worker left %v", left)
		}
	}

	// The master drops what the worker no longer lists and repairs
	// every file from the listing alone.
	waitFor(t, 15*time.Second, "every file repaired, naming only held replicas", func() bool {
		files, err := fs.Fsck("/")
		if err != nil || len(files) != 6 {
			return false
		}
		for _, f := range files {
			if f.HealthyBlocks != f.Blocks || f.MissingReplicas > 0 {
				return false
			}
			blocks, err := fs.GetFileBlockLocations(f.Path, 0, -1)
			if err != nil {
				return false
			}
			for _, lb := range blocks {
				for _, loc := range lb.Locations {
					if string(loc.Worker) == node && !media[loc.Storage].Has(lb.Block) {
						return false
					}
				}
			}
		}
		return true
	})
	for id, m := range media {
		var listed int64
		for _, b := range m.Blocks() {
			listed += b.NumBytes
		}
		if m.Used() != listed {
			t.Errorf("%s: Used() = %d, listed replicas hold %d", id, m.Used(), listed)
		}
	}
}

// TestReadaheadReportsRefusedReplica removes, on disk, the replica a
// reader tries first for a block it opens by readahead: the prefetch
// fails over, and reports the missing replica just as a foreground
// open does.
func TestReadaheadReportsRefusedReplica(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultClusterConfig(dir)
	cfg.BlockSize = 1 << 20
	// HDFS ordering puts the client's own node first, so the reader
	// tries the removed replica before the healthy one.
	cfg.Retrieval = policy.NewHDFSRetrievalPolicy()
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	fs, _ := c.Client("")
	defer fs.Close()

	payload := randomBytes(3<<20, 71)
	if err := fs.WriteFile("/ahead", payload, core.NewReplicationVector(0, 0, 2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	blocks, err := fs.GetFileBlockLocations("/ahead", 0, -1)
	if err != nil || len(blocks) != 3 {
		t.Fatalf("%d blocks, err %v", len(blocks), err)
	}
	// Block 1 is opened by the prefetch started when block 0 opens.
	damaged := blocks[1].Locations[0]
	if err := os.Remove(replicaPath(dir, damaged, blocks[1].Block)); err != nil {
		t.Fatal(err)
	}

	reader, err := c.Client(string(damaged.Worker), client.WithReadahead(2))
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	got, err := reader.ReadFile("/ahead")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("readahead read returned wrong content")
	}
	stats := reader.DataPathStats()
	if stats.BadReports != 1 {
		t.Errorf("BadReports = %.0f, want 1: the prefetch skipped a missing replica silently", stats.BadReports)
	}
	if stats.ReadaheadOpens < 1 {
		t.Errorf("ReadaheadOpens = %.0f: block 1 was not prefetched", stats.ReadaheadOpens)
	}
}
