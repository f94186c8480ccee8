package namespace

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

func TestEditLogReplayAfterRestart(t *testing.T) {
	dir := t.TempDir()
	ns, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ns.Mkdir("/data", true, "u")
	writeFile(t, ns, "/data/f", rv3, 100, 200)
	ns.Mkdir("/tmp", true, "u")
	ns.Rename("/data/f", "/tmp/g")
	ns.SetQuota("/tmp", core.TierMemory, 1<<20)
	ns.Close()

	// Reopen: the edit log alone must rebuild the exact tree.
	ns2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer ns2.Close()
	if ns2.Exists("/data/f") || !ns2.Exists("/tmp/g") {
		t.Error("replay lost the rename")
	}
	info, err := ns2.Status("/tmp/g")
	if err != nil {
		t.Fatal(err)
	}
	if info.Length != 300 {
		t.Errorf("replayed length = %d, want 300", info.Length)
	}
	// Block ID allocation must continue after the replayed maximum.
	blocks, _, _, _, _ := ns2.FileBlocks("/tmp/g")
	if _, err := ns2.Create("/new", rv3, 1024, false, "u"); err != nil {
		t.Fatal(err)
	}
	nb, _, err := ns2.AddBlock("/new")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if nb.ID <= b.ID {
			t.Errorf("new block ID %v collides with replayed %v", nb.ID, b.ID)
		}
	}
}

func TestCheckpointTruncatesEditsAndRestores(t *testing.T) {
	dir := t.TempDir()
	ns, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ns.Mkdir("/a/b/c", true, "u")
	writeFile(t, ns, "/a/b/c/f", rv3, 77)
	if err := ns.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Post-checkpoint mutation lands in the fresh edit log.
	ns.Mkdir("/post", true, "u")
	ns.Close()

	if fi, err := os.Stat(filepath.Join(dir, "fsimage")); err != nil || fi.Size() == 0 {
		t.Fatalf("fsimage missing after checkpoint: %v", err)
	}

	ns2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after checkpoint: %v", err)
	}
	defer ns2.Close()
	if !ns2.Exists("/a/b/c/f") {
		t.Error("checkpointed file lost")
	}
	if !ns2.Exists("/post") {
		t.Error("post-checkpoint edit lost")
	}
	info, _ := ns2.Status("/a/b/c/f")
	if info.Length != 77 {
		t.Errorf("restored length = %d, want 77", info.Length)
	}
}

func TestTornEditLogTailIsTolerated(t *testing.T) {
	dir := t.TempDir()
	ns, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ns.Mkdir("/ok", true, "u")
	ns.Close()

	// Simulate a crash mid-append by truncating the tail.
	editsPath := filepath.Join(dir, "edits")
	data, err := os.ReadFile(editsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(editsPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	ns2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	defer ns2.Close()
}

func TestImageBytesRoundTrip(t *testing.T) {
	ns := volatileNS(t)
	ns.Mkdir("/backup/me", true, "u")
	writeFile(t, ns, "/backup/me/f", rv3, 10)
	data, err := ns.ImageBytes()
	if err != nil {
		t.Fatalf("ImageBytes: %v", err)
	}

	standby := volatileNS(t)
	if err := standby.LoadImageBytes(data); err != nil {
		t.Fatalf("LoadImageBytes: %v", err)
	}
	if !standby.Exists("/backup/me/f") {
		t.Error("backup image missing file")
	}
	d1, f1, b1 := ns.Stats()
	d2, f2, b2 := standby.Stats()
	if d1 != d2 || f1 != f2 || b1 != b2 {
		t.Errorf("stats diverge: (%d,%d,%d) vs (%d,%d,%d)", d1, f1, b1, d2, f2, b2)
	}
}

func TestQuotaSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ns, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ns.Mkdir("/q", true, "u")
	ns.SetQuota("/q", core.TierUnspecified, 3*1024)
	writeFile(t, ns, "/q/f", rv3, 1024)
	ns.Close()

	ns2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ns2.Close()
	// The replayed usage must still block a second file's block.
	if _, err := ns2.Create("/q/f2", rv3, 1024, false, "u"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ns2.AddBlock("/q/f2"); err == nil {
		t.Error("quota enforcement lost across restart")
	}
}
