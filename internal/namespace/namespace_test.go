package namespace

import (
	"errors"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
)

func volatileNS(t *testing.T) *Namespace {
	t.Helper()
	ns, err := Open("")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return ns
}

var rv3 = core.ReplicationVectorFromFactor(3)

// writeFile creates, allocates, and completes a file with the given
// block lengths.
func writeFile(t *testing.T, ns *Namespace, path string, rv core.ReplicationVector, blockSizes ...int64) []core.Block {
	t.Helper()
	if _, err := ns.Create(path, rv, 1024, false, "tester"); err != nil {
		t.Fatalf("Create(%s): %v", path, err)
	}
	var blocks []core.Block
	for _, size := range blockSizes {
		b, _, err := ns.AddBlock(path)
		if err != nil {
			t.Fatalf("AddBlock(%s): %v", path, err)
		}
		b.NumBytes = size
		if err := ns.CommitBlock(path, b); err != nil {
			t.Fatalf("CommitBlock(%s): %v", path, err)
		}
		blocks = append(blocks, b)
	}
	if err := ns.Complete(path, nil); err != nil {
		t.Fatalf("Complete(%s): %v", path, err)
	}
	return blocks
}

func TestMkdirAndList(t *testing.T) {
	ns := volatileNS(t)
	if err := ns.Mkdir("/data/raw", true, "alice"); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	if err := ns.Mkdir("/data/raw", false, "alice"); !errors.Is(err, core.ErrExists) {
		t.Errorf("re-Mkdir err = %v, want ErrExists", err)
	}
	if err := ns.Mkdir("/data/raw", true, "alice"); err != nil {
		t.Errorf("idempotent mkdir -p err = %v", err)
	}
	if err := ns.Mkdir("/missing/child", false, "alice"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("mkdir without parent err = %v, want ErrNotFound", err)
	}
	entries, err := ns.List("/data")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(entries) != 1 || entries[0].Path != "/data/raw" || !entries[0].IsDir {
		t.Errorf("List(/data) = %+v", entries)
	}
	if !ns.Exists("/data/raw") || ns.Exists("/nope") {
		t.Error("Exists misbehaves")
	}
}

func TestCreateWriteComplete(t *testing.T) {
	ns := volatileNS(t)
	blocks := writeFile(t, ns, "/f1", rv3, 100, 200, 50)
	if len(blocks) != 3 {
		t.Fatalf("wrote %d blocks", len(blocks))
	}
	// Block IDs must be unique and monotonic.
	if !(blocks[0].ID < blocks[1].ID && blocks[1].ID < blocks[2].ID) {
		t.Errorf("block IDs not monotonic: %v", blocks)
	}
	info, err := ns.Status("/f1")
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	if info.Length != 350 {
		t.Errorf("Length = %d, want 350", info.Length)
	}
	if info.RepVector != rv3 {
		t.Errorf("RepVector = %s, want %s", info.RepVector, rv3)
	}
	if info.IsDir {
		t.Error("file reported as directory")
	}

	got, rv, bs, _, err := ns.FileBlocks("/f1")
	if err != nil {
		t.Fatalf("FileBlocks: %v", err)
	}
	if len(got) != 3 || rv != rv3 || bs != 1024 {
		t.Errorf("FileBlocks = %v, %s, %d", got, rv, bs)
	}
}

func TestCreateValidation(t *testing.T) {
	ns := volatileNS(t)
	if _, err := ns.Create("/f", 0, 0, false, "u"); err == nil {
		t.Error("zero replication vector accepted")
	}
	writeFile(t, ns, "/f", rv3, 10)
	if _, err := ns.Create("/f", rv3, 0, false, "u"); !errors.Is(err, core.ErrExists) {
		t.Errorf("duplicate create err = %v, want ErrExists", err)
	}
	// Overwrite returns the old blocks for invalidation; the file keeps
	// its ID, where delete-then-create would hand out a new one.
	_, _, _, before, _ := ns.FileBlocks("/f")
	removed, err := ns.Create("/f", rv3, 0, true, "u")
	if err != nil {
		t.Fatalf("overwrite create: %v", err)
	}
	if len(removed.Blocks) != 1 || len(removed.Files) != 0 {
		t.Errorf("overwrite returned %+v, want 1 block and no file", removed)
	}
	if before == 0 || removed.File != before {
		t.Errorf("overwrite changed the file's ID: %d -> %d", before, removed.File)
	}
	ns.Complete("/f", nil)
	ns.Delete("/f", false)
	if after, _ := ns.Create("/f", rv3, 0, false, "u"); after.File == before {
		t.Errorf("delete-then-create reused ID %d", after.File)
	}
	if got := ns.PathOf(before); got != "" {
		t.Errorf("PathOf a deleted file's ID = %q, want \"\"", got)
	}
	if err := ns.Mkdir("/d", false, "u"); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Create("/d", rv3, 0, true, "u"); !errors.Is(err, core.ErrIsDirectory) {
		t.Errorf("create over directory err = %v, want ErrIsDirectory", err)
	}
	if _, err := ns.Create("/nodir/f", rv3, 0, false, "u"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("create without parent err = %v, want ErrNotFound", err)
	}
}

func TestUnderConstructionRules(t *testing.T) {
	ns := volatileNS(t)
	if _, err := ns.Create("/uc", rv3, 1024, false, "u"); err != nil {
		t.Fatal(err)
	}
	// Cannot overwrite a file that is still being written.
	if _, err := ns.Create("/uc", rv3, 0, true, "u"); !errors.Is(err, core.ErrFileOpen) {
		t.Errorf("overwrite UC file err = %v, want ErrFileOpen", err)
	}
	if err := ns.Complete("/uc", nil); err != nil {
		t.Fatal(err)
	}
	// AddBlock on a sealed file fails.
	if _, _, err := ns.AddBlock("/uc"); !errors.Is(err, core.ErrFileClosed) {
		t.Errorf("AddBlock on sealed file err = %v, want ErrFileClosed", err)
	}
	if err := ns.Complete("/uc", nil); !errors.Is(err, core.ErrFileClosed) {
		t.Errorf("double Complete err = %v, want ErrFileClosed", err)
	}
}

func TestCompleteWithFinalBlock(t *testing.T) {
	ns := volatileNS(t)
	if _, err := ns.Create("/f", rv3, 1024, false, "u"); err != nil {
		t.Fatal(err)
	}
	b, _, err := ns.AddBlock("/f")
	if err != nil {
		t.Fatal(err)
	}
	b.NumBytes = 777
	if err := ns.Complete("/f", &b); err != nil {
		t.Fatalf("Complete with final block: %v", err)
	}
	info, _ := ns.Status("/f")
	if info.Length != 777 {
		t.Errorf("Length = %d, want 777 (final block committed by Complete)", info.Length)
	}
}

func TestAbandon(t *testing.T) {
	ns := volatileNS(t)
	if _, err := ns.Create("/tmp1", rv3, 1024, false, "u"); err != nil {
		t.Fatal(err)
	}
	b, _, _ := ns.AddBlock("/tmp1")
	removed, err := ns.Abandon("/tmp1")
	if err != nil {
		t.Fatalf("Abandon: %v", err)
	}
	if len(removed.Files) != 1 || len(removed.Blocks) != 1 || removed.Blocks[0].ID != b.ID {
		t.Errorf("Abandon returned %+v, want one file and [%v]", removed, b)
	}
	if ns.Exists("/tmp1") {
		t.Error("abandoned file still exists")
	}
	// Abandon of a sealed file is rejected.
	writeFile(t, ns, "/sealed", rv3, 1)
	if _, err := ns.Abandon("/sealed"); !errors.Is(err, core.ErrFileClosed) {
		t.Errorf("Abandon sealed err = %v, want ErrFileClosed", err)
	}
}

// StaleOpenFiles reads the open-file index, not the tree: it must list
// exactly the under-construction files, by their current path, through
// complete, rename, delete of an ancestor, edit-log replay and image load.
func TestStaleOpenFilesFollowsTheOpenSet(t *testing.T) {
	dir := t.TempDir()
	ns, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ns.Close() }()
	stale := func(when string, want ...string) {
		t.Helper()
		got := ns.StaleOpenFiles(1 << 62)
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: StaleOpenFiles = %v, want %v", when, got, want)
		}
	}
	reopen := func() {
		t.Helper()
		ns.Close()
		if ns, err = Open(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns.Mkdir("/d/e", true, "u"); err != nil {
		t.Fatal(err)
	}
	writeFile(t, ns, "/d/sealed", rv3, 1)
	for _, p := range []string{"/d/e/open1", "/d/open2", "/open3"} {
		if _, err := ns.Create(p, rv3, 1024, false, "u"); err != nil {
			t.Fatal(err)
		}
	}
	stale("after create", "/d/e/open1", "/d/open2", "/open3")
	if got := ns.StaleOpenFiles(0); len(got) != 0 {
		t.Fatalf("cutoff before every mutation lists %v", got)
	}
	if err := ns.Complete("/open3", nil); err != nil {
		t.Fatal(err)
	}
	if err := ns.Rename("/d/e", "/moved"); err != nil {
		t.Fatal(err)
	}
	stale("after complete and directory rename", "/d/open2", "/moved/open1")
	reopen()
	stale("after edit-log replay", "/d/open2", "/moved/open1")
	if err := ns.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reopen()
	stale("after image load", "/d/open2", "/moved/open1")
	if _, err := ns.Delete("/d", true); err != nil {
		t.Fatal(err)
	}
	stale("after deleting an ancestor", "/moved/open1")
	if _, err := ns.Abandon("/moved/open1"); err != nil {
		t.Fatal(err)
	}
	stale("after abandon")
}

func TestDelete(t *testing.T) {
	ns := volatileNS(t)
	ns.Mkdir("/d/sub", true, "u")
	b1 := writeFile(t, ns, "/d/f1", rv3, 10)
	b2 := writeFile(t, ns, "/d/sub/f2", rv3, 20, 30)

	if _, err := ns.Delete("/d", false); !errors.Is(err, core.ErrNotEmpty) {
		t.Errorf("non-recursive delete err = %v, want ErrNotEmpty", err)
	}
	removed, err := ns.Delete("/d", true)
	if err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if len(removed.Blocks) != len(b1)+len(b2) || len(removed.Files) != 2 {
		t.Errorf("Delete returned %d blocks of %d files, want %d of 2",
			len(removed.Blocks), len(removed.Files), len(b1)+len(b2))
	}
	if ns.Exists("/d") {
		t.Error("deleted directory still exists")
	}
	if _, err := ns.Delete("/", true); !errors.Is(err, core.ErrPermission) {
		t.Errorf("delete root err = %v, want ErrPermission", err)
	}
	if _, err := ns.Delete("/gone", false); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("delete missing err = %v, want ErrNotFound", err)
	}
}

func TestRename(t *testing.T) {
	ns := volatileNS(t)
	ns.Mkdir("/a", true, "u")
	ns.Mkdir("/b", true, "u")
	writeFile(t, ns, "/a/f", rv3, 42)

	if err := ns.Rename("/a/f", "/b/g"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if ns.Exists("/a/f") || !ns.Exists("/b/g") {
		t.Error("rename did not move the file")
	}
	info, _ := ns.Status("/b/g")
	if info.Length != 42 {
		t.Errorf("renamed file length = %d", info.Length)
	}

	if err := ns.Rename("/b/g", "/b/g"); !errors.Is(err, core.ErrExists) {
		t.Errorf("rename onto itself err = %v, want ErrExists", err)
	}
	if err := ns.Rename("/b", "/b/inside"); !errors.Is(err, core.ErrExists) {
		t.Errorf("rename into own subtree err = %v, want ErrExists", err)
	}
	if err := ns.Rename("/", "/x"); !errors.Is(err, core.ErrPermission) {
		t.Errorf("rename root err = %v, want ErrPermission", err)
	}
	if err := ns.Rename("/missing", "/y"); !errors.Is(err, core.ErrNotFound) {
		t.Errorf("rename missing err = %v, want ErrNotFound", err)
	}
}

func TestSetRepVector(t *testing.T) {
	ns := volatileNS(t)
	writeFile(t, ns, "/f", core.NewReplicationVector(1, 0, 2, 0, 0), 100)
	old, err := ns.SetRepVector("/f", core.NewReplicationVector(1, 1, 1, 0, 0))
	if err != nil {
		t.Fatalf("SetRepVector: %v", err)
	}
	if old != core.NewReplicationVector(1, 0, 2, 0, 0) {
		t.Errorf("old vector = %s", old)
	}
	info, _ := ns.Status("/f")
	if info.RepVector != core.NewReplicationVector(1, 1, 1, 0, 0) {
		t.Errorf("new vector = %s", info.RepVector)
	}
	ns.Mkdir("/d", true, "u")
	if _, err := ns.SetRepVector("/d", rv3); !errors.Is(err, core.ErrIsDirectory) {
		t.Errorf("SetRepVector on dir err = %v, want ErrIsDirectory", err)
	}
}

func TestTierQuotas(t *testing.T) {
	ns := volatileNS(t)
	ns.Mkdir("/q", true, "u")
	// Memory-tier quota: 2048 bytes. A file with 1 memory replica and
	// block size 1024 can allocate two blocks, not three.
	if err := ns.SetQuota("/q", core.TierMemory, 2048); err != nil {
		t.Fatalf("SetQuota: %v", err)
	}
	rv := core.NewReplicationVector(1, 0, 2, 0, 0)
	if _, err := ns.Create("/q/f", rv, 1024, false, "u"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		b, _, err := ns.AddBlock("/q/f")
		if err != nil {
			t.Fatalf("AddBlock %d: %v", i, err)
		}
		b.NumBytes = 1024
		if err := ns.CommitBlock("/q/f", b); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ns.AddBlock("/q/f"); !errors.Is(err, core.ErrQuotaExceeded) {
		t.Errorf("third block err = %v, want ErrQuotaExceeded", err)
	}
	ns.Complete("/q/f", nil)

	// Raising the quota unblocks; clearing it removes the limit.
	if err := ns.SetQuota("/q", core.TierMemory, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Create("/q/f2", rv, 1024, false, "u"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ns.AddBlock("/q/f2"); err != nil {
		t.Errorf("AddBlock after clearing quota: %v", err)
	}
}

func TestTotalSpaceQuota(t *testing.T) {
	ns := volatileNS(t)
	ns.Mkdir("/q", true, "u")
	// Total quota 3*1024: one block with 3 replicas fits exactly.
	if err := ns.SetQuota("/q", core.TierUnspecified, 3*1024); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Create("/q/f", rv3, 1024, false, "u"); err != nil {
		t.Fatal(err)
	}
	b, _, err := ns.AddBlock("/q/f")
	if err != nil {
		t.Fatalf("first block: %v", err)
	}
	b.NumBytes = 1024
	ns.CommitBlock("/q/f", b)
	if _, _, err := ns.AddBlock("/q/f"); !errors.Is(err, core.ErrQuotaExceeded) {
		t.Errorf("second block err = %v, want ErrQuotaExceeded", err)
	}
}

func TestQuotaReleasedOnDelete(t *testing.T) {
	ns := volatileNS(t)
	ns.Mkdir("/q", true, "u")
	ns.SetQuota("/q", core.TierUnspecified, 3*1024)
	writeFile(t, ns, "/q/f", rv3, 1024)
	if _, err := ns.Create("/q/f2", rv3, 1024, false, "u"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ns.AddBlock("/q/f2"); !errors.Is(err, core.ErrQuotaExceeded) {
		t.Fatalf("expected quota exhaustion, got %v", err)
	}
	if _, err := ns.Delete("/q/f", false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ns.AddBlock("/q/f2"); err != nil {
		t.Errorf("AddBlock after delete freed quota: %v", err)
	}
}

func TestRenameRespectsDestinationQuota(t *testing.T) {
	ns := volatileNS(t)
	ns.Mkdir("/big", true, "u")
	ns.Mkdir("/small", true, "u")
	ns.SetQuota("/small", core.TierUnspecified, 100)
	writeFile(t, ns, "/big/f", rv3, 1024)
	if err := ns.Rename("/big/f", "/small/f"); !errors.Is(err, core.ErrQuotaExceeded) {
		t.Errorf("rename into full dir err = %v, want ErrQuotaExceeded", err)
	}
	// And the file must still be in place after the failed rename.
	if !ns.Exists("/big/f") {
		t.Error("failed rename removed the source")
	}
}

func TestStats(t *testing.T) {
	ns := volatileNS(t)
	ns.Mkdir("/a/b", true, "u")
	writeFile(t, ns, "/a/f1", rv3, 1)
	writeFile(t, ns, "/a/b/f2", rv3, 1, 2)
	dirs, files, blocks := ns.Stats()
	if dirs != 3 || files != 2 || blocks != 3 { // root, /a, /a/b
		t.Errorf("Stats = %d dirs, %d files, %d blocks; want 3/2/3", dirs, files, blocks)
	}
}

func TestForEachFile(t *testing.T) {
	ns := volatileNS(t)
	ns.Mkdir("/x", true, "u")
	writeFile(t, ns, "/x/a", rv3, 1)
	writeFile(t, ns, "/x/b", rv3, 2)
	var paths []string
	ns.ForEachFile(func(_ FileID, p string, blocks []core.Block, rv core.ReplicationVector) {
		paths = append(paths, p)
		if rv != rv3 {
			t.Errorf("rv for %s = %s", p, rv)
		}
	})
	if len(paths) != 2 || paths[0] != "/x/a" || paths[1] != "/x/b" {
		t.Errorf("ForEachFile visited %v", paths)
	}
}
