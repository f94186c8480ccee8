package namespace

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// snapshotTree flattens a namespace into a deterministic, comparable
// form: every directory and file with its length, vector, block IDs,
// and under-construction flag.
func snapshotTree(t *testing.T, ns *Namespace) []string {
	t.Helper()
	var out []string
	var walk func(path string)
	walk = func(path string) {
		infos, err := ns.List(path)
		if err != nil {
			t.Fatalf("list %s: %v", path, err)
		}
		for _, info := range infos {
			if info.IsDir {
				out = append(out, fmt.Sprintf("dir %s", info.Path))
				walk(info.Path)
				continue
			}
			blocks, rv, bs, _, err := ns.FileBlocks(info.Path)
			if err != nil {
				t.Fatalf("blocks %s: %v", info.Path, err)
			}
			line := fmt.Sprintf("file %s len=%d rv=%v bs=%d blocks=", info.Path, info.Length, rv, bs)
			for _, b := range blocks {
				line += fmt.Sprintf("%d:%d:%d,", b.ID, b.GenStamp, b.NumBytes)
			}
			out = append(out, line)
		}
	}
	out = append(out, "dir /")
	walk(Separator)
	sort.Strings(out)
	return out
}

func equalSnapshots(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestTornTailTruncatedAndTolerated(t *testing.T) {
	dir := t.TempDir()
	ns, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const total = 20
	for i := 0; i < total; i++ {
		if err := ns.Mkdir(fmt.Sprintf("/d%03d", i), false, "t"); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop bytes off the tail so the last
	// record is torn.
	edits := filepath.Join(dir, editsFile)
	fi, err := os.Stat(edits)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(edits, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	ns2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	rec := ns2.Recovery()
	if rec.EditsReplayed >= total || rec.EditsReplayed < total-2 {
		t.Fatalf("edits replayed = %d, want in [%d, %d]", rec.EditsReplayed, total-2, total-1)
	}
	// The surviving directories must be an exact prefix.
	for i := 0; i < total; i++ {
		want := i < rec.EditsReplayed
		if got := ns2.Exists(fmt.Sprintf("/d%03d", i)); got != want {
			t.Fatalf("dir %d exists=%v, want %v (replayed %d)", i, got, want, rec.EditsReplayed)
		}
	}

	// The log must be appendable again and the next replay must see
	// both the surviving prefix and the new mutation — i.e. the torn
	// bytes were truncated away, not appended after.
	if err := ns2.Mkdir("/after", false, "t"); err != nil {
		t.Fatal(err)
	}
	if err := ns2.Close(); err != nil {
		t.Fatal(err)
	}
	ns3, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after post-crash append: %v", err)
	}
	defer ns3.Close()
	if !ns3.Exists("/after") {
		t.Fatal("post-crash mutation lost on second replay")
	}
	// The first reopen compacted the surviving prefix into the image,
	// so only the post-crash mutation replays.
	if got := ns3.Recovery().EditsReplayed; got != 1 {
		t.Fatalf("second replay = %d edits, want 1", got)
	}
	for i := 0; i < rec.EditsReplayed; i++ {
		if !ns3.Exists(fmt.Sprintf("/d%03d", i)) {
			t.Fatalf("dir %d lost after compaction", i)
		}
	}
}

func TestReplayDeterministicUnderConcurrentMutations(t *testing.T) {
	dir := t.TempDir()
	ns, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := fmt.Sprintf("/g%d", g)
			if err := ns.Mkdir(base, true, "t"); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 25; i++ {
				path := fmt.Sprintf("%s/f%d", base, i)
				if _, err := ns.Create(path, core.ReplicationVectorFromFactor(1), 1<<20, false, "t"); err != nil {
					t.Error(err)
					return
				}
				blk, _, err := ns.AddBlock(path)
				if err != nil {
					t.Error(err)
					return
				}
				blk.NumBytes = int64(100 + i)
				if err := ns.CommitBlock(path, blk); err != nil {
					t.Error(err)
					return
				}
				if err := ns.Complete(path, nil); err != nil {
					t.Error(err)
					return
				}
				switch i % 3 {
				case 0:
					if err := ns.Rename(path, path+".r"); err != nil {
						t.Error(err)
					}
				case 1:
					if _, err := ns.Delete(path, false); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	want := snapshotTree(t, ns)
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay must reproduce the exact tree, however the writers
	// interleaved — twice, to prove replay itself has no side effects
	// on the log.
	for round := 0; round < 2; round++ {
		ns2, err := Open(dir)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		got := snapshotTree(t, ns2)
		if !equalSnapshots(want, got) {
			t.Fatalf("round %d: replayed tree differs:\nwant %d entries\ngot  %d entries", round, len(want), len(got))
		}
		if err := ns2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecoveryStatsRecorded(t *testing.T) {
	dir := t.TempDir()
	ns, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := ns.Recovery(); got.ImageBytes != 0 || got.EditsReplayed != 0 {
		t.Fatalf("fresh namespace recovery = %+v, want no image / no edits", got)
	}
	for i := 0; i < 10; i++ {
		if err := ns.Mkdir(fmt.Sprintf("/pre%d", i), false, "t"); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := ns.Mkdir(fmt.Sprintf("/post%d", i), false, "t"); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}

	ns2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ns2.Close()
	rec := ns2.Recovery()
	if rec.ImageBytes <= 0 {
		t.Fatalf("image bytes = %d, want > 0", rec.ImageBytes)
	}
	if rec.ImageLoadNs <= 0 {
		t.Fatalf("image load ns = %d, want > 0", rec.ImageLoadNs)
	}
	if rec.EditsReplayed != 7 {
		t.Fatalf("edits replayed = %d, want 7 (checkpoint absorbed the first 10)", rec.EditsReplayed)
	}
	if rec.ReplayNs <= 0 {
		t.Fatalf("replay ns = %d, want > 0", rec.ReplayNs)
	}
}

func TestOpStatsAndObservers(t *testing.T) {
	dir := t.TempDir()
	ns, err := OpenWithOptions(dir, Options{SyncEdits: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()

	var mu sync.Mutex
	var writeLocks, readLocks, appends, fsyncs, batchRecords int
	ns.SetLockObserver(func(wait time.Duration, read bool) {
		mu.Lock()
		defer mu.Unlock()
		if read {
			readLocks++
		} else {
			writeLocks++
		}
	})
	ns.SetEditObserver(func(appendD, fsyncD time.Duration, records int) {
		mu.Lock()
		defer mu.Unlock()
		appends++
		batchRecords += records
		if fsyncD > 0 {
			fsyncs++
		}
	})

	var st OpStats
	if err := ns.Mkdir("/obs", false, "t", &st); err != nil {
		t.Fatal(err)
	}
	if st.ApplyNs <= 0 {
		t.Fatalf("mkdir apply ns = %d, want > 0", st.ApplyNs)
	}
	if st.AppendNs <= 0 {
		t.Fatalf("mkdir append ns = %d, want > 0", st.AppendNs)
	}
	if st.FsyncNs <= 0 {
		t.Fatalf("mkdir fsync ns = %d, want > 0 (SyncEdits on)", st.FsyncNs)
	}

	var rd OpStats
	if _, err := ns.List("/", &rd); err != nil {
		t.Fatal(err)
	}
	if rd.ApplyNs <= 0 {
		t.Fatalf("list apply ns = %d, want > 0", rd.ApplyNs)
	}
	if rd.AppendNs != 0 || rd.FsyncNs != 0 {
		t.Fatalf("read op touched the edit log: %+v", rd)
	}

	mu.Lock()
	defer mu.Unlock()
	if writeLocks != 1 || readLocks == 0 {
		t.Fatalf("lock observer: write=%d read=%d", writeLocks, readLocks)
	}
	if appends != 1 || fsyncs != 1 || batchRecords != 1 {
		t.Fatalf("edit observer: appends=%d fsyncs=%d records=%d", appends, fsyncs, batchRecords)
	}
}
