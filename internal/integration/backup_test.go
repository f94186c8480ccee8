package integration

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/master"
)

func TestBackupMasterCheckpointAndTakeover(t *testing.T) {
	c := startTestCluster(t)
	fs, _ := c.Client("")
	defer fs.Close()

	fs.Mkdir("/critical", true)
	if err := fs.WriteFile("/critical/state", randomBytes(1<<20, 53), core.ReplicationVectorFromFactor(1)); err != nil {
		t.Fatal(err)
	}

	ckptDir := t.TempDir()
	b, err := master.NewBackup(master.BackupConfig{
		PrimaryAddr:   c.Master.Addr(),
		CheckpointDir: ckptDir,
		Interval:      100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewBackup: %v", err)
	}
	defer b.Close()

	// The backup's standby image must already reflect the namespace.
	if !b.Namespace().Exists("/critical/state") {
		t.Error("backup standby image missing file")
	}

	// New mutations reach the backup within the sync interval.
	fs.Mkdir("/late", true)
	waitFor(t, 5*time.Second, "backup to pick up /late", func() bool {
		return b.Namespace().Exists("/late")
	})

	// Take over: the backup stops first, which waits out any checkpoint
	// in progress — its standby image is refreshed before the file is, and
	// a sync loop still writing fsimage.tmp would collide with the new
	// master compacting the same directory.
	b.Close()

	// The checkpoint file must be restorable by a fresh master.
	if _, err := os.Stat(filepath.Join(ckptDir, "fsimage")); err != nil {
		t.Fatalf("checkpoint file: %v", err)
	}
	m2, err := master.New(master.Config{
		ListenAddr: "127.0.0.1:0",
		MetaDir:    ckptDir,
	})
	if err != nil {
		t.Fatalf("takeover master: %v", err)
	}
	defer m2.Close()
	if !m2.Namespace().Exists("/critical/state") || !m2.Namespace().Exists("/late") {
		t.Error("takeover master missing namespace entries")
	}
}

func TestMasterRestartFromMetaDir(t *testing.T) {
	metaDir := t.TempDir()
	dataDir := t.TempDir()
	cfg := DefaultClusterConfig(dataDir)
	cfg.MetaDir = metaDir
	c, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fs, _ := c.Client("")
	data := randomBytes(2<<20, 59)
	if err := fs.WriteFile("/durable", data, core.ReplicationVectorFromFactor(2)); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	c.Close()

	// A new cluster over the same metadata and block directories must
	// recover the namespace, and block reports must repopulate the
	// block map so the data is readable again.
	cfg2 := DefaultClusterConfig(dataDir)
	cfg2.MetaDir = metaDir
	c2, err := StartCluster(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	fs2, _ := c2.Client("")
	defer fs2.Close()

	waitFor(t, 10*time.Second, "block reports to restore replicas", func() bool {
		blocks, err := fs2.GetFileBlockLocations("/durable", 0, -1)
		if err != nil || len(blocks) == 0 {
			return false
		}
		for _, b := range blocks {
			if len(b.Locations) == 0 {
				return false
			}
		}
		return true
	})
	got, err := fs2.ReadFile("/durable")
	if err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if len(got) != len(data) {
		t.Fatalf("restored length = %d, want %d", len(got), len(data))
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatal("restored content differs")
		}
	}
}
