package namespace

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// fullState lists every inode in pre-order with everything it holds —
// name, type, owner, modification time, quotas, usage, vector, block
// size, blocks with their generation, the under-construction flag — and
// then the namespace's counters and its open files.
func fullState(t *testing.T, ns *Namespace) string {
	t.Helper()
	var out []string
	var walk func(path string, n *INode)
	walk = func(path string, n *INode) {
		line := fmt.Sprintf("%s dir=%v owner=%q mod=%d quota=%v usage=%v rv=%d bs=%d open=%v blocks=",
			path, n.IsDir, n.Owner, n.ModTime, n.Quota, n.Usage, uint64(n.RepVector), n.BlockSize, n.UnderConstruction)
		for _, b := range n.Blocks {
			line += fmt.Sprintf("%d:%d:%d,", b.ID, b.GenStamp, b.NumBytes)
		}
		out = append(out, line)
		for _, name := range n.childNames() {
			walk(JoinPath(path, name), n.Children[name])
		}
	}
	ns.mu.RLock()
	defer ns.mu.RUnlock()
	walk(Separator, ns.root)
	var open []string
	for _, f := range ns.open {
		open = append(open, pathTo(f))
	}
	sort.Strings(open)
	out = append(out, fmt.Sprintf("tx=%d block=%d gen=%d files=%d open=%v",
		ns.txid, ns.nextBlockID, ns.nextGen, len(ns.files), open))
	return strings.Join(out, "\n")
}

func readEditsFile(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, editsFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// invoke hands rec to the public method that would have built it.
func invoke(ns *Namespace, rec EditRecord) error {
	var err error
	switch rec.Op {
	case EditMkdir:
		err = ns.Mkdir(rec.Path, rec.Parents, rec.Owner)
	case EditCreate:
		_, err = ns.Create(rec.Path, rec.RepVector, rec.BlockSize, rec.Overwrite, rec.Owner)
	case EditAddBlock:
		_, _, err = ns.AddBlock(rec.Path)
	case EditCommitBlock:
		err = ns.CommitBlock(rec.Path, rec.Block)
	case EditComplete:
		last := &rec.Block
		if last.ID == 0 {
			last = nil
		}
		err = ns.Complete(rec.Path, last)
	case EditAbandon:
		_, err = ns.Abandon(rec.Path)
	case EditDelete:
		_, err = ns.Delete(rec.Path, rec.Recursive)
	case EditRename:
		err = ns.Rename(rec.Path, rec.Dst)
	case EditSetRepVector:
		_, err = ns.SetRepVector(rec.Path, rec.RepVector)
	case EditSetQuota:
		err = ns.SetQuota(rec.Path, rec.Tier, rec.Bytes)
	case EditAbandonBlock:
		err = ns.AbandonBlock(rec.Path, rec.Block.ID)
	}
	return err
}

// TestRejectedOpLeavesTreeAndLogUntouched rejects every op kind, through
// its public method and through apply as replay calls it: both say why,
// neither changes a byte of the tree or of the log, and a reopen finds
// the namespace as it was — no rejected record made it into the log.
func TestRejectedOpLeavesTreeAndLogUntouched(t *testing.T) {
	dir := t.TempDir()
	ns, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ns.Close() }()
	ns.Mkdir("/d/sub", true, "u")
	ns.Mkdir("/small", false, "u")
	ns.SetQuota("/small", core.TierUnspecified, 100)
	writeFile(t, ns, "/f", rv3, 10)
	sealed := writeFile(t, ns, "/d/sealed", rv3, 1024, 512)
	if _, err := ns.Create("/d/open", rv3, 1024, false, "u"); err != nil {
		t.Fatal(err)
	}
	first, _, _ := ns.AddBlock("/d/open")
	if _, _, err := ns.AddBlock("/d/open"); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.Create("/small/open", rv3, 1024, false, "u"); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		rec  EditRecord
		want error // nil: any error
	}{
		{"mkdir -p through a file", EditRecord{Op: EditMkdir, Path: "/f/x/y", Parents: true}, core.ErrNotDirectory},
		{"mkdir under a file", EditRecord{Op: EditMkdir, Path: "/f/x"}, core.ErrNotDirectory},
		{"mkdir without parent", EditRecord{Op: EditMkdir, Path: "/no/x"}, core.ErrNotFound},
		{"mkdir existing", EditRecord{Op: EditMkdir, Path: "/d"}, core.ErrExists},
		{"mkdir -p over a file", EditRecord{Op: EditMkdir, Path: "/f", Parents: true}, core.ErrExists},
		{"create the root", EditRecord{Op: EditCreate, Path: "/", RepVector: rv3, BlockSize: 1024, Overwrite: true}, core.ErrIsDirectory},
		{"create over a directory", EditRecord{Op: EditCreate, Path: "/d", RepVector: rv3, BlockSize: 1024, Overwrite: true}, core.ErrIsDirectory},
		{"create over an open file", EditRecord{Op: EditCreate, Path: "/d/open", RepVector: rv3, BlockSize: 1024, Overwrite: true}, core.ErrFileOpen},
		{"create existing", EditRecord{Op: EditCreate, Path: "/f", RepVector: rv3, BlockSize: 1024}, core.ErrExists},
		{"create without parent", EditRecord{Op: EditCreate, Path: "/no/f", RepVector: rv3, BlockSize: 1024}, core.ErrNotFound},
		{"create under a file", EditRecord{Op: EditCreate, Path: "/f/g", RepVector: rv3, BlockSize: 1024}, core.ErrNotDirectory},
		{"create with no replicas", EditRecord{Op: EditCreate, Path: "/new", BlockSize: 1024}, nil},
		{"addBlock to a sealed file", EditRecord{Op: EditAddBlock, Path: "/f"}, core.ErrFileClosed},
		{"addBlock to a directory", EditRecord{Op: EditAddBlock, Path: "/d"}, core.ErrIsDirectory},
		{"addBlock over quota", EditRecord{Op: EditAddBlock, Path: "/small/open"}, core.ErrQuotaExceeded},
		{"commitBlock of an unknown block", EditRecord{Op: EditCommitBlock, Path: "/d/open", Block: core.Block{ID: 999, NumBytes: 5}}, core.ErrNotFound},
		{"commitBlock in a missing file", EditRecord{Op: EditCommitBlock, Path: "/gone", Block: first}, core.ErrNotFound},
		{"abandonBlock not the last", EditRecord{Op: EditAbandonBlock, Path: "/d/open", Block: first}, core.ErrNotFound},
		{"abandonBlock of a sealed file", EditRecord{Op: EditAbandonBlock, Path: "/d/sealed", Block: sealed[1]}, core.ErrFileClosed},
		{"complete a sealed file", EditRecord{Op: EditComplete, Path: "/f"}, core.ErrFileClosed},
		{"complete with an unknown final block", EditRecord{Op: EditComplete, Path: "/d/open", Block: core.Block{ID: 999, NumBytes: 5}}, core.ErrNotFound},
		{"abandon a sealed file", EditRecord{Op: EditAbandon, Path: "/f"}, core.ErrFileClosed},
		{"abandon a directory", EditRecord{Op: EditAbandon, Path: "/"}, core.ErrFileClosed},
		{"delete the root", EditRecord{Op: EditDelete, Path: "/", Recursive: true}, core.ErrPermission},
		{"delete a full directory", EditRecord{Op: EditDelete, Path: "/d"}, core.ErrNotEmpty},
		{"delete nothing", EditRecord{Op: EditDelete, Path: "/gone"}, core.ErrNotFound},
		{"rename into a missing parent", EditRecord{Op: EditRename, Path: "/f", Dst: "/no/f"}, core.ErrNotFound},
		{"rename under a file", EditRecord{Op: EditRename, Path: "/d/sealed", Dst: "/f/x"}, core.ErrNotDirectory},
		{"rename onto an entry", EditRecord{Op: EditRename, Path: "/f", Dst: "/d/sealed"}, core.ErrExists},
		{"rename into itself", EditRecord{Op: EditRename, Path: "/d", Dst: "/d/sub/d"}, core.ErrExists},
		{"rename the root", EditRecord{Op: EditRename, Path: "/", Dst: "/x"}, core.ErrPermission},
		{"rename nothing", EditRecord{Op: EditRename, Path: "/gone", Dst: "/x"}, core.ErrNotFound},
		{"rename over quota", EditRecord{Op: EditRename, Path: "/d/sealed", Dst: "/small/s"}, core.ErrQuotaExceeded},
		{"setRepVector on a directory", EditRecord{Op: EditSetRepVector, Path: "/d", RepVector: rv3}, core.ErrIsDirectory},
		{"setRepVector to nothing", EditRecord{Op: EditSetRepVector, Path: "/f"}, nil},
		{"setQuota on a file", EditRecord{Op: EditSetQuota, Path: "/f", Bytes: 1}, core.ErrNotDirectory},
		{"setQuota on no tier", EditRecord{Op: EditSetQuota, Path: "/d", Tier: core.TierUnspecified + 1, Bytes: 1}, core.ErrNotFound},
	}
	before, logBefore := fullState(t, ns), readEditsFile(t, dir)
	check := func(how, name string, err, want error) {
		t.Helper()
		if err == nil || (want != nil && !errors.Is(err, want)) {
			t.Errorf("%s, %s: err = %v, want %v", name, how, err, want)
		}
		if after := fullState(t, ns); after != before {
			t.Fatalf("%s, %s: the rejected op changed the tree:\n%s\n--- was ---\n%s", name, how, after, before)
		}
		if !bytes.Equal(readEditsFile(t, dir), logBefore) {
			t.Fatalf("%s, %s: the rejected op reached the log", name, how)
		}
	}
	seen := map[EditOp]bool{}
	for _, c := range cases {
		seen[c.rec.Op] = true
		check("public method", c.name, invoke(ns, c.rec), c.want)
		c.rec.TxID, c.rec.Time = ns.txid+1, 12345
		if c.rec.Op == EditAddBlock {
			c.rec.Block = core.Block{ID: core.BlockID(ns.nextBlockID), GenStamp: 1}
		}
		ns.mu.Lock()
		_, err := ns.apply(c.rec)
		ns.mu.Unlock()
		check("replay", c.name, err, c.want)
	}
	for op := EditMkdir; op <= EditAbandonBlock; op++ {
		if !seen[op] {
			t.Errorf("no rejected case for edit op %d", op)
		}
	}

	want := snapshotTree(t, ns)
	ns.Close()
	if ns, err = Open(dir); err != nil {
		t.Fatalf("reopen after the rejected ops: %v", err)
	}
	if got := snapshotTree(t, ns); !equalSnapshots(got, want) {
		t.Fatalf("reopened tree differs:\n%v\n--- want ---\n%v", got, want)
	}
}

// buildLog runs a mix of mutations, one record each, against a fresh
// namespace in dir and returns the log's bytes, the image it sits on and
// the tree after each record (snaps[0] is the empty tree).
func buildLog(t *testing.T, dir string) (log, image []byte, snaps [][]string) {
	t.Helper()
	ns, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var blk core.Block
	steps := []func() error{
		func() error { return ns.Mkdir("/a/b", true, "owner") },
		func() error { _, err := ns.Create("/a/b/f", rv3, 1024, false, "owner"); return err },
		func() error { blk, _, err = ns.AddBlock("/a/b/f"); return err },
		func() error { blk.NumBytes = 700; return ns.CommitBlock("/a/b/f", blk) },
		func() error { blk, _, err = ns.AddBlock("/a/b/f"); return err },
		func() error { return ns.AbandonBlock("/a/b/f", blk.ID) },
		func() error { blk, _, err = ns.AddBlock("/a/b/f"); return err },
		func() error { blk.NumBytes = 300; return ns.Complete("/a/b/f", &blk) },
		func() error { return ns.SetQuota("/a", core.TierUnspecified, 1<<20) },
		func() error {
			_, err := ns.SetRepVector("/a/b/f", core.NewReplicationVector(1, 0, 1, 0, 0))
			return err
		},
		func() error { return ns.Rename("/a/b", "/a/c") },
		func() error { _, err := ns.Create("/a/tmp", rv3, 0, false, "owner"); return err },
		func() error { _, err := ns.Abandon("/a/tmp"); return err },
		func() error { _, err := ns.Create("/a/c/f", rv3, 0, true, "owner"); return err },
		func() error { return ns.Complete("/a/c/f", nil) },
		func() error { _, err := ns.Delete("/a/c", true); return err },
	}
	snaps = append(snaps, snapshotTree(t, ns))
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		snaps = append(snaps, snapshotTree(t, ns))
	}
	if err := ns.Close(); err != nil {
		t.Fatal(err)
	}
	if image, err = os.ReadFile(filepath.Join(dir, imageFile)); err != nil {
		t.Fatal(err)
	}
	return readEditsFile(t, dir), image, snaps
}

// frameEnds returns the offset at which each frame of a clean log ends,
// preceded by the offset at which the first one starts.
func frameEnds(t *testing.T, log []byte) []int {
	t.Helper()
	ends := []int{len(editMagic)}
	for off := len(editMagic); off < len(log); {
		off += editFrameHdr + int(binary.LittleEndian.Uint32(log[off:]))
		ends = append(ends, off)
	}
	if ends[len(ends)-1] != len(log) {
		t.Fatalf("log of %d bytes does not end on a frame boundary: %v", len(log), ends)
	}
	return ends
}

// openWith opens a namespace over the given image and edit log bytes.
func openWith(t *testing.T, image, edits []byte) (*Namespace, string, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, imageFile), image, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, editsFile), edits, 0o644); err != nil {
		t.Fatal(err)
	}
	ns, err := Open(dir)
	return ns, dir, err
}

// TestCrashPointEnumeration cuts a log of mixed records at every byte:
// the decoder returns exactly the records that are whole, in order and
// without complaint. At each frame boundary and once inside each frame
// the whole cycle runs: the namespace reopens to the tree as of the last
// whole record, takes a new mutation, and reopens with both.
func TestCrashPointEnumeration(t *testing.T) {
	log, image, snaps := buildLog(t, t.TempDir())
	all, err := decodeEdits(log)
	if err != nil || len(all) != len(snaps)-1 {
		t.Fatalf("full log: %d records, err %v; want %d", len(all), err, len(snaps)-1)
	}
	ends := frameEnds(t, log)
	whole := func(cut int) (n int) {
		for n < len(all) && ends[n+1] <= cut {
			n++
		}
		return n
	}
	for cut := 0; cut <= len(log); cut++ {
		recs, err := decodeEdits(log[:cut])
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if len(recs) != whole(cut) {
			t.Fatalf("cut at %d: %d records, want %d", cut, len(recs), whole(cut))
		}
		for i, rec := range recs {
			if rec != all[i] {
				t.Fatalf("cut at %d: record %d = %+v, want %+v", cut, i, rec, all[i])
			}
		}
	}

	cuts := []int{0, 3}
	for i, end := range ends {
		cuts = append(cuts, end)
		if i+1 < len(ends) {
			cuts = append(cuts, end+(ends[i+1]-end)/2)
		}
	}
	for _, cut := range cuts {
		n := whole(cut)
		ns, dir, err := openWith(t, image, log[:cut])
		if err != nil {
			t.Fatalf("cut at %d: reopen: %v", cut, err)
		}
		if got := ns.Recovery().EditsReplayed; got != n {
			t.Fatalf("cut at %d: replayed %d edits, want %d", cut, got, n)
		}
		if got := snapshotTree(t, ns); !equalSnapshots(got, snaps[n]) {
			t.Fatalf("cut at %d: tree %v, want that after %d records %v", cut, got, n, snaps[n])
		}
		if err := ns.Mkdir("/after", false, "u"); err != nil {
			t.Fatalf("cut at %d: mutation after recovery: %v", cut, err)
		}
		want := snapshotTree(t, ns)
		ns.Close()
		if ns, err = Open(dir); err != nil {
			t.Fatalf("cut at %d: second reopen: %v", cut, err)
		}
		if got := ns.Recovery().EditsReplayed; got != 1 {
			t.Fatalf("cut at %d: second reopen replayed %d edits, want 1", cut, got)
		}
		if got := snapshotTree(t, ns); !equalSnapshots(got, want) {
			t.Fatalf("cut at %d: second reopen: tree %v, want %v", cut, got, want)
		}
		ns.Close()
	}
}

// TestCorruptionIsNotATornTail: damage with data behind it fails Open,
// naming the offset of the damaged frame and leaving the log where it
// was; damage at the tail is an interrupted append and is dropped.
func TestCorruptionIsNotATornTail(t *testing.T) {
	log, image, snaps := buildLog(t, t.TempDir())
	ends := frameEnds(t, log)
	mid := len(ends) / 2 // frame mid starts at ends[mid]
	flip := func(off int, bit byte) []byte {
		out := bytes.Clone(log)
		out[off] ^= bit
		return out
	}
	var oldGob bytes.Buffer
	enc := gob.NewEncoder(&oldGob)
	for i := 1; i <= 3; i++ {
		if err := enc.Encode(EditRecord{TxID: uint64(i), Op: EditMkdir, Path: "/abcd", Time: 1}); err != nil {
			t.Fatal(err)
		}
	}

	for _, c := range []struct {
		name  string
		edits []byte
		at    int
	}{
		{"payload byte of a middle record", flip(ends[mid]+editFrameHdr+4, 0x01), ends[mid]},
		{"checksum byte of a middle record", flip(ends[mid]+5, 0x10), ends[mid]},
		{"low length bit of a middle record", flip(ends[mid], 0x01), ends[mid]},
		{"high length bit of a middle record", flip(ends[mid]+3, 0x80), ends[mid]},
		{"length of a middle record zeroed", append(append(bytes.Clone(log[:ends[mid]]), 0, 0, 0, 0), log[ends[mid]+4:]...), ends[mid]},
		{"bad frame, zeros, then a good frame", append(append(flip(len(log)-1, 0x01), make([]byte, 16)...), log[ends[1]:ends[2]]...), ends[len(ends)-2]},
		{"old gob log", oldGob.Bytes(), 0},
		{"zeros without the magic", make([]byte, 64), 0},
	} {
		ns, dir, err := openWith(t, image, c.edits)
		if err == nil {
			ns.Close()
			t.Errorf("%s: Open succeeded (replayed %d edits)", c.name, ns.Recovery().EditsReplayed)
			continue
		}
		if want := fmt.Sprintf("corrupt at byte %d:", c.at); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want it to say %q", c.name, err, want)
		}
		if !bytes.Equal(readEditsFile(t, dir), c.edits) {
			t.Errorf("%s: the failed Open changed the edit log", c.name)
		}
	}

	last := len(ends) - 2 // the final frame starts at ends[last]
	for _, c := range []struct {
		name  string
		edits []byte
		recs  int
	}{
		{"payload byte of the last record", flip(len(log)-1, 0x01), last},
		{"length byte of the last record", flip(ends[last], 0x01), last},
		{"bad last record, then zeros", append(flip(len(log)-1, 0x01), make([]byte, 100)...), last},
		{"good records, then zeros", append(bytes.Clone(log), make([]byte, 100)...), last + 1},
		{"cut inside a header", log[:ends[mid]+5], mid},
		{"cut inside a payload", log[:ends[mid]+editFrameHdr+3], mid},
		{"magic and sixteen zero bytes", append([]byte(editMagic), make([]byte, 16)...), 0},
		{"half the magic", []byte(editMagic[:4]), 0},
		{"empty", nil, 0},
	} {
		ns, _, err := openWith(t, image, c.edits)
		if err != nil {
			t.Errorf("%s: Open: %v", c.name, err)
			continue
		}
		if got := ns.Recovery().EditsReplayed; got != c.recs {
			t.Errorf("%s: replayed %d edits, want %d", c.name, got, c.recs)
		}
		if got := snapshotTree(t, ns); !equalSnapshots(got, snaps[c.recs]) {
			t.Errorf("%s: tree %v, want %v", c.name, got, snaps[c.recs])
		}
		ns.Close()
	}
}

// TestFailStop pulls the log's file out from under the namespace. The
// mutation that hits it fails; from then on the tree may be ahead of the
// log, so every mutation is refused with that same error while reads go
// on; a checkpoint makes the tree durable another way and lifts it.
func TestFailStop(t *testing.T) {
	dir := t.TempDir()
	ns, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { ns.Close() }()
	if err := ns.Mkdir("/kept", false, "u"); err != nil {
		t.Fatal(err)
	}
	before := snapshotTree(t, ns)
	ns.log.f.Close()

	first := ns.Mkdir("/unlogged", false, "u")
	if first == nil {
		t.Fatal("a mutation succeeded with the log closed")
	}
	if _, again := ns.Create("/other", rv3, 0, false, "u"); again != first {
		t.Fatalf("the tree may be ahead of the log, yet the next mutation returned %v, not the sticky %v", again, first)
	}
	if err := ns.Rename("/kept", "/moved"); err != first {
		t.Fatalf("rename after the failure returned %v, want the sticky error", err)
	}
	if _, err := ns.Status("/kept"); err != nil {
		t.Fatalf("reads stopped working: %v", err)
	}
	if _, err := ns.List("/"); err != nil {
		t.Fatalf("reads stopped working: %v", err)
	}
	// Only the first failed mutation may show, and nothing after it.
	withUnlogged := append(append([]string{}, before...), "dir /unlogged")
	sort.Strings(withUnlogged)
	failed := snapshotTree(t, ns)
	if !equalSnapshots(failed, before) && !equalSnapshots(failed, withUnlogged) {
		t.Fatalf("tree after the failure: %v", failed)
	}

	if err := ns.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := ns.Mkdir("/resumed", false, "u"); err != nil {
		t.Fatalf("mutation after the checkpoint: %v", err)
	}
	want := snapshotTree(t, ns)
	ns.Close()
	if ns, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	if got := snapshotTree(t, ns); !equalSnapshots(got, want) {
		t.Fatalf("reopened tree %v, want %v", got, want)
	}
	if got := ns.Recovery().EditsReplayed; got != 1 {
		t.Fatalf("replayed %d edits, want the one after the checkpoint", got)
	}
}

// TestCheckpointCrashWindow: a checkpoint makes the image durable before
// it replaces the log, so a crash between the two leaves an image at
// TxID N beside a log whose records are all at or below N. They are
// skipped, and appends resume at N+1.
func TestCheckpointCrashWindow(t *testing.T) {
	dir := t.TempDir()
	log, _, snaps := buildLog(t, dir)
	ns, err := Open(dir) // replays the log and checkpoints: the image is at N
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(snaps) - 1)
	ns.Close()
	if err := os.WriteFile(filepath.Join(dir, editsFile), log, 0o644); err != nil {
		t.Fatal(err)
	}

	if ns, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer func() { ns.Close() }()
	if got := ns.Recovery().EditsReplayed; got != 0 {
		t.Fatalf("replayed %d stale edits, want 0", got)
	}
	if got := snapshotTree(t, ns); !equalSnapshots(got, snaps[n]) {
		t.Fatalf("tree %v, want %v", got, snaps[n])
	}
	if err := ns.Mkdir("/next", false, "u"); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadEdits(filepath.Join(dir, editsFile))
	if err != nil || len(recs) != 1 || recs[0].TxID != n+1 {
		t.Fatalf("log after the crash window: %+v, err %v; want one record with TxID %d", recs, err, n+1)
	}
}

// TestEditRecordRoundTrip: every field survives the frame, at its
// extremes too.
func TestEditRecordRoundTrip(t *testing.T) {
	for _, rec := range []EditRecord{
		{TxID: 1, Op: EditMkdir, Path: "/a"},
		{TxID: 1<<64 - 1, Op: EditAbandonBlock, Path: "/p", Dst: "/q", Owner: "o",
			RepVector: 1<<64 - 1, BlockSize: -1 << 63,
			Block:   core.Block{ID: 1<<64 - 1, GenStamp: 1<<64 - 1, NumBytes: 1<<63 - 1},
			Parents: true, Overwrite: true, Recursive: true, Tier: 255, Bytes: -1, Time: 1<<63 - 1},
		{TxID: 7, Op: EditRename, Path: strings.Repeat("/x", 1000), Dst: "/" + strings.Repeat("y", 3000), Recursive: true},
	} {
		got, err := decodeEdits(appendFrame([]byte(editMagic), rec))
		if err != nil || len(got) != 1 || got[0] != rec {
			t.Errorf("round trip of %+v: %+v, err %v", rec, got, err)
		}
	}
	if _, ok := decodeRecord(nil); ok {
		t.Error("an empty payload decoded as a record")
	}
}

// frameWalk is the fuzz targets' reference reading of frames, sharing
// the decoders' rule for one frame and nothing else: it counts the frames
// at the head of data that are whole, no longer than limit, checksummed
// right and, under good, hold a good payload, and reports whether they
// end exactly where data does.
func frameWalk(data []byte, limit uint32, good func(payload []byte) bool) (n int, clean bool) {
	for ; len(data) >= editFrameHdr; n++ {
		size := binary.LittleEndian.Uint32(data)
		if size > limit || uint64(size) > uint64(len(data)-editFrameHdr) {
			break
		}
		payload := data[editFrameHdr : editFrameHdr+int(size)]
		if binary.LittleEndian.Uint32(data[4:]) != frameSum(data[:4], payload) || !good(payload) {
			break
		}
		data = data[editFrameHdr+int(size):]
	}
	return n, len(data) == 0
}

// FuzzReadEdits: the decoder never panics and never returns a record at
// or past the first bad frame that frameWalk finds.
func FuzzReadEdits(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := decodeEdits(data)
		good := 0
		if bytes.HasPrefix(data, []byte(editMagic)) {
			good, _ = frameWalk(data[len(editMagic):], maxEditPayload, func(payload []byte) bool {
				_, ok := decodeRecord(payload)
				return ok
			})
		} else if err == nil && !bytes.HasPrefix([]byte(editMagic), data) {
			t.Fatalf("%d bytes without the magic were accepted", len(data))
		}
		if len(recs) != good {
			t.Fatalf("decoder returned %d records (err %v), the log has %d good frames before its first bad one", len(recs), err, good)
		}
	})
}
